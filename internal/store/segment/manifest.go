package segment

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The manifest is the root of the segment set: a single file naming, in
// age order, every live segment. It changes only by atomic whole-file
// swap — write MANIFEST.tmp, fsync it, rename over MANIFEST, fsync the
// directory — so a crash at any point leaves either the old or the new
// generation, never a mix. Segment files referenced by neither (a seal or
// compaction that died before its swap) are orphans, deleted at Open.

const (
	manifestName    = "MANIFEST"
	manifestTmpName = "MANIFEST.tmp"
	manifestMagic   = "ESMAN1\x00\x00"
)

// SegmentInfo is one manifest row, also the CLI's `store segments` output.
type SegmentInfo struct {
	ID         uint64 `json:"id"`
	File       string `json:"file"`
	MinID      uint64 `json:"min_id"`
	MaxID      uint64 `json:"max_id"`
	Entries    int    `json:"entries"`
	Puts       int    `json:"puts"`
	Tombstones int    `json:"tombstones"`
	Bytes      int64  `json:"bytes"`
	BloomBits  int    `json:"bloom_bits"`
}

// Manifest is the decoded manifest file.
type Manifest struct {
	// Gen increments on every swap (seal or compaction).
	Gen uint64 `json:"gen"`
	// NextID is the next segment sequence number to allocate.
	NextID uint64 `json:"next_id"`
	// Segments lists live segments oldest first.
	Segments []SegmentInfo `json:"segments"`
}

// encodeManifest renders magic | json | crc32(json).
func encodeManifest(m *Manifest) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(manifestMagic)+len(body)+4)
	buf = append(buf, manifestMagic...)
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, segCRC)), nil
}

// decodeManifest parses and CRC-verifies a manifest file body.
func decodeManifest(buf []byte) (*Manifest, error) {
	if len(buf) < len(manifestMagic)+4 {
		return nil, errTruncated("manifest")
	}
	if string(buf[:len(manifestMagic)]) != manifestMagic {
		return nil, errCorrupt("bad manifest magic")
	}
	body := buf[len(manifestMagic) : len(buf)-4]
	want := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, segCRC) != want {
		return nil, errCorrupt("manifest checksum mismatch")
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, errCorrupt("manifest json: %v", err)
	}
	return &m, nil
}

// ReadManifest loads the manifest from a segment directory. A missing file
// is a fresh (empty) store; a present-but-corrupt file is an error — the
// swap protocol never leaves one behind.
func ReadManifest(dir string) (*Manifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return &Manifest{NextID: 1}, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeManifest(buf)
}

// writeManifest performs the atomic swap: tmp write, fsync, rename over
// MANIFEST, directory fsync. fail, when non-nil, is invoked with a named
// kill point before and after the rename so crash tests can die inside the
// protocol.
func writeManifest(dir string, m *Manifest, fail func(string) error) error {
	buf, err := encodeManifest(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if fail != nil {
		if err := fail("manifest.before-rename"); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	if fail != nil {
		if err := fail("manifest.after-rename"); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// segmentFileName names a segment file by sequence number.
func segmentFileName(id uint64) string {
	return fmt.Sprintf("%08d.seg", id)
}
