package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	mmdb "repro"
	"repro/internal/imaging"
)

// TestDrainKeepsAckedInserts is the SIGTERM contract: an insert the server
// acknowledged (HTTP 201) before shutdown must survive even if the process
// dies right after Run returns, without a clean database Close. Inserts
// race the shutdown on purpose; whatever subset got acked is what must be
// on disk after crash recovery.
func TestDrainKeepsAckedInserts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drain.db")
	db, err := mmdb.Open(mmdb.WithPath(path))
	if err != nil {
		t.Fatal(err)
	}

	// Reserve a port for Run (it owns the listener, so the test cannot use
	// httptest here).
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- Run(ctx, addr, New(db)) }()
	waitListening(t, addr)

	img := imaging.New(4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			img.Set(x, y, imaging.RGB{R: 200, G: 40, B: 40})
		}
	}
	var ppm bytes.Buffer
	if err := mmdb.EncodePPM(&ppm, img); err != nil {
		t.Fatal(err)
	}
	body := ppm.Bytes()

	var mu sync.Mutex
	var acked []uint64
	var wg sync.WaitGroup
	const writers = 8
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				id := uint64(1 + w + writers*i)
				url := fmt.Sprintf("http://%s/v1/objects?name=img-%d&id=%d", addr, id, id)
				resp, err := http.Post(url, "image/x-portable-pixmap", bytes.NewReader(body))
				if err != nil {
					return // listener closed mid-shutdown
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					return
				}
				mu.Lock()
				acked = append(acked, id)
				mu.Unlock()
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond) // let some inserts land
	cancel()                          // SIGTERM
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	wg.Wait()

	// Process dies without Close; recovery must still have every ack.
	if err := db.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	rec, err := mmdb.Open(mmdb.WithPath(path))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	if len(acked) == 0 {
		t.Fatal("no insert was acknowledged before shutdown; test proved nothing")
	}
	for _, id := range acked {
		if _, err := rec.Get(id); err != nil {
			t.Errorf("acked insert %d lost after drain+crash: %v", id, err)
		}
	}
}

func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("server on %s never came up", addr)
}
