// Command rpdrill runs one of the serving drills: it builds rpserved
// and rprouter, starts them on ephemeral ports, drives fixed
// deterministic request mixes through them, and exits 1 at the first
// broken assertion.
//
// Usage, from inside the module:
//
//	rpdrill serve     # replay, then SIGTERM under load must drain
//	rpdrill chaos     # kill -9 + warm restart, drain flush, disk faults
//	rpdrill cluster   # router + 2 replicas: collapse, failover, drain
//
// Every signal a drill sends "under load" goes out at a 200 that comes
// back while the server is reading or answering another request, and
// the drill fails if the load ended first. Every process rpdrill
// starts is killed on every exit path.
package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var drills = map[string]func(*env) error{
	"serve":   serveDrill,
	"chaos":   chaosDrill,
	"cluster": clusterDrill,
}

func main() {
	if len(os.Args) != 2 || drills[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: rpdrill serve|chaos|cluster")
		os.Exit(2)
	}
	os.Exit(run(os.Args[1], drills[os.Args[1]]))
}

// run runs one drill in a fresh work directory and returns the exit
// status. Whatever ends it, every started process is killed first.
func run(name string, drill func(*env) error) (code int) {
	dir, err := os.MkdirTemp("", "rpdrill-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpdrill:", err)
		return 1
	}
	e := &env{dir: dir}
	defer e.cleanup()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "rpdrill %s: panic: %v\n%s", name, r, debug.Stack())
			code = 1
		}
	}()
	if err = e.build(); err == nil {
		err = drill(e)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rpdrill %s: FAIL: %v\n", name, err)
		return 1
	}
	fmt.Printf("rpdrill %s: PASS\n", name)
	return 0
}

var (
	// replay revisits four small programs, so most answers come from
	// cache.
	replay = mix{n: 64, c: 4, unique: 4, size: "small"}
	// hotkey is a Zipf-skewed mix over large programs: herds of
	// identical cold requests overlap long enough to collapse. Program
	// 14 of the large corpus runs past the servers' 50M-step ceiling,
	// so the mixes of large programs stop short of it.
	hotkey = mix{n: 256, c: 16, unique: 14, size: "large", zipfS: 1.2}
	// drain sends large programs from four clients: on a cold server
	// the requests in flight at the first answer are still in the
	// pipeline when the signal that answer triggers arrives.
	drain = mix{n: 28, c: 4, unique: 14, size: "large"}
	// spread sends eight small programs across the replicas.
	spread = mix{n: 300, c: 8, unique: 8, size: "small"}
)

func say(format string, args ...any) { fmt.Printf("rpdrill: "+format+"\n", args...) }

// serveDrill: a replay pass with no failure and one outcome per
// program, then SIGTERM under load must drain cleanly.
func serveDrill(e *env) error {
	srv, err := e.start("rpserved")
	if err != nil {
		return err
	}
	say("replay")
	if _, err := clean(srv, replay); err != nil {
		return err
	}
	say("SIGTERM under load")
	return drainUnderLoad(srv)
}

// drainUnderLoad sends the drain mix to p and SIGTERMs it at the
// load's first answer. p must exit 0 and answer every request that was
// in flight at the signal.
func drainUnderLoad(p *proc) error {
	t, err := load(p.url(), drain, func() { p.signal(syscall.SIGTERM) })
	if err != nil {
		return err
	}
	if err := p.wait(); err != nil {
		return fmt.Errorf("no clean drain under load: %w", err)
	}
	switch {
	case !t.signalled:
		return errors.New("the load ended before the SIGTERM")
	case t.answered < t.inflight:
		return fmt.Errorf("%d of %d requests in flight at the SIGTERM were not answered", t.inflight-t.answered, t.inflight)
	case len(t.diverged) > 0:
		return fmt.Errorf("outcomes diverged: %s", t.diverged[0])
	}
	return nil
}

// chaosDrill: kill -9 mid-load then a warm restart, a restart after a
// SIGTERM that must have flushed the write-behind queue, and disk
// faults that must cost only recomputation, each with outcomes
// byte-identical to a pristine memory-only run.
func chaosDrill(e *env) error {
	say("pristine reference run")
	srv, err := e.start("rpserved")
	if err != nil {
		return err
	}
	ref, err := clean(srv, replay)
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}

	say("kill -9 mid-load, warm restart")
	cache := filepath.Join(e.dir, "cache")
	if srv, err = e.start("rpserved", "-cache-dir", cache); err != nil {
		return err
	}
	if _, err := clean(srv, replay); err != nil {
		return err
	}
	if err := srv.writesFlushed(); err != nil {
		return err
	}
	t, err := load(srv.url(), replay, func() { srv.signal(syscall.SIGKILL) })
	if err != nil {
		return err
	}
	<-srv.done
	if !t.signalled {
		return errors.New("the load ended before the kill -9")
	}
	if err := e.warm(cache, ref); err != nil {
		return fmt.Errorf("after kill -9: %w", err)
	}

	say("slow disk, SIGTERM right after the pass, warm restart")
	cache = filepath.Join(e.dir, "drain-cache")
	if srv, err = e.start("rpserved", "-cache-dir", cache, "-chaos-disk", "slow=50ms"); err != nil {
		return err
	}
	if _, err := clean(srv, replay); err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	if err := e.warm(cache, ref); err != nil {
		return fmt.Errorf("after a drain: %w", err)
	}

	say("disk faults")
	srv, err = e.start("rpserved", "-cache-dir", filepath.Join(e.dir, "chaos-cache"),
		"-chaos-disk", "read=0.3,write=0.3,checksum=0.2,slow=1ms,seed=7")
	if err != nil {
		return err
	}
	if t, err = clean(srv, replay); err != nil {
		return err
	}
	if err := t.sameOutcomes(ref); err != nil {
		return fmt.Errorf("under disk faults: %w", err)
	}
	return srv.stop()
}

// warm restarts rpserved over cache and requires every program of the
// replay mix to come from disk at least once, with ref's outcomes.
func (e *env) warm(cache string, ref *tally) error {
	srv, err := e.start("rpserved", "-cache-dir", cache)
	if err != nil {
		return err
	}
	t, err := clean(srv, replay)
	if err != nil {
		return err
	}
	if got := t.programs("disk"); got < replay.unique {
		return fmt.Errorf("restart not warm: %d of %d programs came from disk", got, replay.unique)
	}
	if err := t.sameOutcomes(ref); err != nil {
		return err
	}
	return srv.stop()
}

// clusterDrill: two replicas behind the router. Hot-key herds must
// collapse, a replica's kill -9 must cost no request, the router must
// drain under load, and both binaries must drain a SIGTERM sent the
// moment they publish their port.
func clusterDrill(e *env) error {
	r1, err := e.start("rpserved", "-queue", "64")
	if err != nil {
		return err
	}
	r2, err := e.start("rpserved", "-queue", "64")
	if err != nil {
		return err
	}
	rt, err := e.start("rprouter", "-replicas", r1.addr+","+r2.addr)
	if err != nil {
		return err
	}

	say("hot-key herds through the router")
	t, err := clean(rt, hotkey)
	if err != nil {
		return err
	}
	if t.count("collapsed") == 0 {
		return errors.New("no singleflight collapse on the hot-key mix")
	}

	say("kill -9 one replica mid-load")
	if t, err = load(rt.url(), spread, func() { r2.signal(syscall.SIGKILL) }); err != nil {
		return err
	}
	if err := t.verdict(); err != nil {
		return fmt.Errorf("across the replica kill: %w", err)
	}
	if !t.signalled {
		return errors.New("the load ended before the kill -9")
	}

	say("router drain under load")
	if err := drainUnderLoad(rt); err != nil {
		return fmt.Errorf("router: %w", err)
	}

	// A handler installed after the port file is written leaves a
	// window of microseconds; with one round per binary, a mutation
	// that opens it went unnoticed in one run of nine.
	say("SIGTERM at port publication")
	for i := range 10 {
		args := []string{"rpserved"}
		if i%2 == 1 {
			args = []string{"rprouter", "-replicas", r1.addr}
		}
		p, err := e.spawn(args[0], args[1:]...)
		if err != nil {
			return err
		}
		if err := p.published(0); err != nil {
			return err
		}
		if err := p.stop(); err != nil {
			return fmt.Errorf("SIGTERM sent as the port file appeared: %w", err)
		}
	}
	return nil
}

// env is one drill's work directory and the processes it started.
type env struct {
	dir   string
	procs []*proc
}

// build compiles rpserved and rprouter into the work directory.
func (e *env) build() error {
	cmd := exec.Command("go", "build", "-o", e.dir+string(filepath.Separator), "repro/cmd/rpserved", "repro/cmd/rprouter")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the servers: %w", err)
	}
	return nil
}

// cleanup kills every started process and removes the work directory.
func (e *env) cleanup() {
	for _, p := range e.procs {
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	os.RemoveAll(e.dir)
}

// clean sends m to p and requires the verdict of an uninterrupted load.
func clean(p *proc, m mix) (*tally, error) {
	t, err := load(p.url(), m, nil)
	if err == nil {
		err = t.verdict()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return t, nil
}

// proc is one started rpserved or rprouter.
type proc struct {
	name     string
	portFile string
	addr     string // host:port, once listening
	cmd      *exec.Cmd
	done     chan struct{} // closed when the process has exited
	err      error         // its exit status, once done is closed
}

// spawn starts bin from the work directory on an ephemeral port.
func (e *env) spawn(bin string, args ...string) (*proc, error) {
	n := len(e.procs)
	p := &proc{
		name:     fmt.Sprintf("%s#%d", bin, n),
		portFile: filepath.Join(e.dir, fmt.Sprintf("%d.port", n)),
		done:     make(chan struct{}),
	}
	p.cmd = exec.Command(filepath.Join(e.dir, bin),
		append([]string{"-addr", "127.0.0.1:0", "-port-file", p.portFile}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = os.Stderr, os.Stderr
	dieWithParent(p.cmd)
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	e.procs = append(e.procs, p)
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// start spawns bin and waits until it publishes its port.
func (e *env) start(bin string, args ...string) (*proc, error) {
	p, err := e.spawn(bin, args...)
	if err != nil {
		return nil, err
	}
	if err := p.published(time.Millisecond); err != nil {
		return nil, err
	}
	addr, err := os.ReadFile(p.portFile)
	p.addr = strings.TrimSpace(string(addr))
	return p, err
}

// published polls for p's port file every poll; 0 spins on stat, so a
// signal can follow the publication within microseconds.
func (p *proc) published(poll time.Duration) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(p.portFile); err == nil {
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before publishing its port: %v", p.name, p.err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s published no port within 10s", p.name)
		}
		time.Sleep(poll)
	}
}

func (p *proc) url() string { return "http://" + p.addr }

func (p *proc) signal(sig syscall.Signal) { _ = p.cmd.Process.Signal(sig) }

// wait waits for p to exit and returns its exit status.
func (p *proc) wait() error {
	select {
	case <-p.done:
	case <-time.After(time.Minute):
		return fmt.Errorf("%s still running after a minute", p.name)
	}
	if p.err != nil {
		return fmt.Errorf("%s: %w", p.name, p.err)
	}
	return nil
}

// stop sends SIGTERM and requires a clean exit.
func (p *proc) stop() error {
	p.signal(syscall.SIGTERM)
	return p.wait()
}

// writesFlushed waits until rpserved's disk write queue is empty, so a
// kill -9 that follows loses no outcome it already served.
func (p *proc) writesFlushed() error {
	for range 1000 {
		if m, err := scrape(p.url(), "rpserved_disk_write_queue"); err != nil || m == 0 {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s: disk write queue not empty after 10s", p.name)
}

// scrape reads one unlabelled series from the /metrics page under base.
func scrape(base, series string) (int64, error) {
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(page), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no series %s", base, series)
}
