// Package frontdoor holds the HTTP front-door mechanisms the promotion
// replica (rpserved) and the cluster router (rprouter) share, each
// exactly once: the keyed token-bucket limiter, the remote-address key
// and Retry-After formatting it needs, the drain gate, the JSON writer,
// and the listen/signal/drain process loop both binaries run.
package frontdoor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// Gate orders request admission against draining: a request registers
// only while the gate is open, and Drain closes it before waiting, so
// no request can slip in after the wait starts. The zero value is open.
type Gate struct {
	mu       sync.Mutex
	draining bool
	wg       sync.WaitGroup
}

// Enter registers an in-flight request unless draining has started.
// Every true return must be paired with one Exit.
func (g *Gate) Enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.wg.Add(1)
	return true
}

// Exit marks a request registered by Enter as finished.
func (g *Gate) Exit() { g.wg.Done() }

// Draining reports whether Drain has started.
func (g *Gate) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Drain closes the gate and waits for every registered request to exit
// (or ctx to expire).
func (g *Gate) Drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %w", ctx.Err())
	}
}

// WriteJSON writes v as the JSON body of a code response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is out; a failed body write has no one left to tell
}

// Run is a front-door binary's process loop. It listens on addr,
// publishes the bound address to portFile (when set) and announces it
// on stdout as "<name>: listening on <addr>", serves h until SIGTERM or
// SIGINT, then stops the listener and calls drain, both bounded by
// drainTimeout. It returns nil after a clean drain.
func Run(name, addr, portFile string, h http.Handler, drain func(context.Context) error, drainTimeout time.Duration) error {
	// Register for the signals before the listener exists and the port
	// file is published: a supervisor that signals the moment the port
	// file appears must get a drain, not the default kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if portFile != "" {
		// Written atomically (tmp + rename) so a poller never reads a
		// half-written address.
		tmp := portFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
		if err := os.Rename(tmp, portFile); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Printf("%s: listening on %s\n", name, bound)

	hs := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("%s: %v — draining\n", name, s)
	case err := <-serveErr:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Shutdown stops the listener and waits for active HTTP handlers;
	// drain additionally flips /healthz and refuses any request that
	// slipped in, so the two together give the clean-exit contract.
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := drain(ctx); err != nil {
		return err
	}
	fmt.Printf("%s: drained, exiting\n", name)
	return nil
}
