// Package ctxflow holds fixtures for the ctxflow analyzer: a function that
// accepts a context must thread it into internal/store commit waits.
package ctxflow

import (
	"context"

	"repro/internal/store"
)

// bad: waiting for the group-commit fsync with a fresh root makes the
// commit wait uncancellable even though the caller handed us a context.
func dropped(ctx context.Context, tk *store.WALTicket) error {
	return tk.Wait(context.Background()) // want "context.Background\(\) passed to tk.Wait"
}

// bad: TODO is no better.
func todo(ctx context.Context, tk *store.WALTicket) error {
	return tk.Wait(context.TODO()) // want "context.TODO\(\) passed to tk.Wait"
}

// good: the commit wait is bounded by the caller's context.
func threaded(ctx context.Context, tk *store.WALTicket) error {
	return tk.Wait(ctx)
}

// good: no context parameter in scope, so a root wait is the only option.
func rootCaller(tk *store.WALTicket) error {
	return tk.Wait(context.Background())
}

// bad: a closure capturing the outer ctx still must use it.
func captured(ctx context.Context, tk *store.WALTicket) func() error {
	return func() error {
		return tk.Wait(context.Background()) // want "context.Background\(\) passed to tk.Wait"
	}
}

// bad: a literal with its own ctx parameter inside a ctx-less function.
func litCtx(tk *store.WALTicket) func(context.Context) error {
	return func(ctx context.Context) error {
		return tk.Wait(context.Background()) // want "context.Background\(\) passed to tk.Wait"
	}
}

// good: derived contexts are real propagation.
func derived(ctx context.Context, tk *store.WALTicket) error {
	c, cancel := context.WithCancel(ctx)
	defer cancel()
	return tk.Wait(c)
}
