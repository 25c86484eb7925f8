package server

import (
	"context"
	"net/http"
	"time"
)

// Serve timeouts. ReadHeaderTimeout bounds slow-loris header dribbling;
// IdleTimeout reaps keep-alive connections between requests. Request
// bodies and handlers are intentionally unbounded here — long queries are
// governed by the caller's context, not the listener.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
	// ShutdownGrace is how long Run waits for in-flight requests to drain
	// after the context is canceled before forcibly closing connections.
	ShutdownGrace = 10 * time.Second
)

// Run serves s on addr until ctx is canceled, then drains in-flight
// requests with a graceful Shutdown (bounded by ShutdownGrace). Callers
// wire ctx to SIGINT/SIGTERM so shard processes restart cleanly; a nil
// return means a clean drain.
func Run(ctx context.Context, addr string, s *Server) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		// Listener failed before the context did (e.g. port in use).
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return err
	}
	<-errc // ListenAndServe's http.ErrServerClosed
	// Every in-flight request has now completed, which means every
	// acknowledged write has already been fsynced by the WAL's group
	// commit. The checkpoint below additionally folds the drained log into
	// the store so a SIGTERM'd shard restarts without replay; it must come
	// after Shutdown, never instead of it, or an insert acked mid-drain
	// could miss the flush.
	return s.db.Sync()
}
