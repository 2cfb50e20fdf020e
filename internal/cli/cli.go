// Package cli holds the process-level conventions every gtsc binary
// shares, so gtscsim and gtscbench behave identically under signals
// instead of carrying per-binary copies:
//
//   - exit codes: 0 success, 1 failure, 3 graceful suspend (the run
//     was interrupted but left resumable state — a checkpoint or a
//     journal), 130 hard abort on a second signal;
//   - SIGINT/SIGTERM handling: the first signal cancels the returned
//     context (in-flight work suspends at its next poll point), the
//     second exits immediately with ExitSecondSignal.
package cli

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// Exit codes shared by every binary. CI and wrappers rely on the
// distinction: ExitInterrupted means "killed mid-run, resumable",
// ExitFailure means "broken".
const (
	ExitOK           = 0
	ExitFailure      = 1
	ExitInterrupted  = 3
	ExitSecondSignal = 130
)

// WithSignals derives a context that is canceled (with a cause
// wrapping context.Canceled) by the first SIGINT/SIGTERM; a second
// signal exits the process immediately with ExitSecondSignal. name
// prefixes the stderr notice. The returned stop function releases the
// signal handler and must be deferred.
func WithSignals(ctx context.Context, name string) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(ctx)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-sigc:
			fmt.Fprintf(os.Stderr, "%s: caught %v; suspending gracefully (send again to abort hard)\n", name, sig)
			cancel(fmt.Errorf("caught signal %v: %w", sig, context.Canceled))
			select {
			case <-sigc:
				os.Exit(ExitSecondSignal)
			case <-done:
			}
		case <-done:
		}
	}()
	return ctx, func() {
		signal.Stop(sigc)
		close(done)
		cancel(nil)
	}
}
