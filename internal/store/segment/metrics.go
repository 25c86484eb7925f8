package segment

import "repro/internal/obs"

// Process-wide segment metrics, exported on /metrics. Per-engine values
// live in EngineStats; these aggregate across engines (a test process may
// open several) and feed the operational dashboards.
var (
	mSeals         = obs.Default().Counter("esidb_segment_seals_total")
	mCompactions   = obs.Default().Counter("esidb_segment_compactions_total")
	mBloomLookups  = obs.Default().Counter("esidb_segment_bloom_lookups_total")
	mBloomFP       = obs.Default().Counter("esidb_segment_bloom_false_positives_total")
	mRateStalls    = obs.Default().Counter("esidb_segment_ratelimit_stalls_total")
	mRateStallNs   = obs.Default().Counter("esidb_segment_ratelimit_stall_nanos_total")
	mCompactedByte = obs.Default().Counter("esidb_segment_compacted_bytes_total")

	gSegments = obs.Default().Gauge("esidb_segment_count")
	gLive     = obs.Default().Gauge("esidb_segment_live_bytes")
	gDead     = obs.Default().Gauge("esidb_segment_dead_bytes_estimate")
	gBacklog  = obs.Default().Gauge("esidb_segment_compaction_backlog")
)

// updateShapeGauges publishes this engine's current shape. With several
// engines in one process the last writer wins, which is fine: the gauges
// describe the serving database, and a process serves one.
func (e *Engine) updateShapeGauges() {
	st := e.shapeStats()
	gSegments.Set(float64(st.Segments))
	gLive.Set(float64(st.LiveBytes))
	gDead.Set(float64(st.DeadBytesEstimate))
	gBacklog.Set(float64(st.CompactionBacklog))
}
