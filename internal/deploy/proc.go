package deploy

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/msg"
	"minraid/internal/trace"
	"minraid/internal/transport"
)

// ProcConfig parameterizes a process fabric.
type ProcConfig struct {
	// Spec describes the fleet. Required. If Spec.WALRoot is empty it is
	// defaulted to WorkDir/wal: a process fabric without durable stores
	// cannot survive SIGKILL, which is the whole point.
	Spec *ClusterSpec
	// Binary is the raidsrv executable to exec. Required (tests and the
	// soak CLI build it with BuildRaidsrv).
	Binary string
	// WorkDir holds the spec file, per-site logs and (by default) the WAL
	// trees. Required; created if missing.
	WorkDir string
	// ManagerTimeout bounds managing-site calls. Default 30s.
	ManagerTimeout time.Duration
	// StartTimeout bounds how long boot and Restart poll a freshly exec'd
	// child for its first status reply. Default 15s.
	StartTimeout time.Duration
}

// childProc is one raidsrv OS process slot. The slot survives the process:
// a killed site keeps its slot (with the exit recorded) until Restart
// execs a successor into it.
type childProc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed when cmd.Wait returns
	err  error         // cmd.Wait's verdict, valid after done
}

// ProcFabric runs every database site as a raidsrv OS process and itself
// acts as the managing site over real TCP. Kill is SIGKILL — no flushing,
// no goodbyes, volatile state (lock tables, fail-lock tables, sessions in
// memory) genuinely gone. Restart execs a fresh raidsrv on the same WAL
// directory, which replays the log into the store, resumes the persisted
// session number, and boots in the failed state; the fabric then orders
// the ordinary type-1 recovery, so the rejoin path is byte-for-byte the
// protocol the paper measures — only the failure underneath is real.
type ProcFabric struct {
	specPath     string // WorkDir/spec.json: every child's -config, and raidctl's
	binary       string
	workDir      string
	startTimeout time.Duration

	mgr      *cluster.Manager
	closeMgr func()

	mu     sync.Mutex
	procs  []*childProc
	closed bool
}

// NewProcFabric launches the fleet: one raidsrv per database site, all
// sharing one spec file, plus the manager's TCP endpoint in this process.
// It returns once every site answers a status probe.
func NewProcFabric(cfg ProcConfig) (*ProcFabric, error) {
	if cfg.Spec == nil {
		return nil, errors.New("deploy: ProcConfig.Spec is required")
	}
	if cfg.Binary == "" {
		return nil, errors.New("deploy: ProcConfig.Binary is required (see BuildRaidsrv)")
	}
	if cfg.WorkDir == "" {
		return nil, errors.New("deploy: ProcConfig.WorkDir is required")
	}
	if cfg.ManagerTimeout <= 0 {
		cfg.ManagerTimeout = 30 * time.Second
	}
	if cfg.StartTimeout <= 0 {
		cfg.StartTimeout = 15 * time.Second
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, fmt.Errorf("deploy: workdir: %w", err)
	}
	spec := *cfg.Spec
	if spec.WALRoot == "" {
		spec.WALRoot = filepath.Join(cfg.WorkDir, "wal")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	specPath := filepath.Join(cfg.WorkDir, "spec.json")
	if err := spec.Save(specPath); err != nil {
		return nil, fmt.Errorf("deploy: write spec: %w", err)
	}

	mgr, closeMgr, err := spec.DialManager(cfg.ManagerTimeout, 0)
	if err != nil {
		return nil, err
	}
	f := &ProcFabric{
		specPath:     specPath,
		binary:       cfg.Binary,
		workDir:      cfg.WorkDir,
		startTimeout: cfg.StartTimeout,
		mgr:          mgr,
		closeMgr:     closeMgr,
		procs:        make([]*childProc, spec.Sites()),
	}
	for i := range f.procs {
		if err := f.startChild(core.SiteID(i), false); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// Manager implements Fabric.
func (f *ProcFabric) Manager() *cluster.Manager { return f.mgr }

// LogPath returns site id's captured stdout+stderr log file.
func (f *ProcFabric) LogPath(id core.SiteID) string {
	return filepath.Join(f.workDir, fmt.Sprintf("site-%d.log", id))
}

// startChild execs a raidsrv for site id and polls until it responds.
// down selects the crash-restart boot: the child comes up in the failed
// state after WAL replay and waits for a recovery order.
func (f *ProcFabric) startChild(id core.SiteID, down bool) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("deploy: fabric closed")
	}
	if p := f.procs[id]; p != nil {
		select {
		case <-p.done:
		default:
			f.mu.Unlock()
			return fmt.Errorf("deploy: site %s already running", id)
		}
	}
	logf, err := os.OpenFile(f.LogPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		f.mu.Unlock()
		return fmt.Errorf("deploy: site %s log: %w", id, err)
	}
	args := []string{"-config", f.specPath, "-id", fmt.Sprint(int(id))}
	if down {
		args = append(args, "-down")
	}
	fmt.Fprintf(logf, "--- exec %s %s ---\n", f.binary, strings.Join(args, " "))
	cmd := exec.Command(f.binary, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		f.mu.Unlock()
		return fmt.Errorf("deploy: exec site %s: %w", id, err)
	}
	p := &childProc{cmd: cmd, done: make(chan struct{})}
	f.procs[id] = p
	f.mu.Unlock()
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()

	// Poll until the child's listener is up and its site loop answers. A
	// down-booted child still answers status (out-of-band instrumentation
	// works on failed sites), so one probe covers both boot shapes.
	deadline := time.Now().Add(f.startTimeout)
	for {
		st, err := f.mgr.StatusTimeout(id, false, time.Second)
		if err == nil {
			if down && st.State == core.StatusUp {
				return fmt.Errorf("deploy: site %s restarted up, want down-boot", id)
			}
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("deploy: site %s exited during start: %v (log: %s)", id, p.err, f.LogPath(id))
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deploy: site %s not answering after %s: %v (log: %s)", id, f.startTimeout, err, f.LogPath(id))
		}
	}
}

// Kill implements Fabric: SIGKILL, then wait for the OS to reap the
// child. Nothing is flushed; whatever the WAL already holds is the only
// state that survives — a genuine crash, not the paper's simulated one.
func (f *ProcFabric) Kill(id core.SiteID) error {
	p, err := f.proc(id)
	if err != nil {
		return err
	}
	select {
	case <-p.done: // already dead
		return nil
	default:
	}
	if err := p.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("deploy: kill site %s: %w", id, err)
	}
	<-p.done
	return nil
}

// Restart implements Fabric for a crashed site: re-exec raidsrv with
// -down on the same WAL directory (replay + persisted session + failed
// state), then order the ordinary type-1 recovery through the manager.
func (f *ProcFabric) Restart(id core.SiteID) (*msg.StatusResp, error) {
	if err := f.startChild(id, true); err != nil {
		return nil, err
	}
	return f.mgr.Recover(id)
}

// Wait blocks until site id's current process exits and returns its exit
// verdict (non-nil for a SIGKILLed child).
func (f *ProcFabric) Wait(id core.SiteID) error {
	p, err := f.proc(id)
	if err != nil {
		return err
	}
	<-p.done
	return p.err
}

func (f *ProcFabric) proc(id core.SiteID) (*childProc, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(id) < 0 || int(id) >= len(f.procs) {
		return nil, fmt.Errorf("deploy: site %s out of range 0..%d", id, len(f.procs)-1)
	}
	p := f.procs[id]
	if p == nil {
		return nil, fmt.Errorf("deploy: site %s was never started", id)
	}
	return p, nil
}

// Close tears the fleet down: SIGTERM for a clean stop (raidsrv flushes
// and exits), SIGKILL after a grace period for stragglers, then the
// manager transport.
func (f *ProcFabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	procs := append([]*childProc(nil), f.procs...)
	f.mu.Unlock()

	for _, p := range procs {
		if p == nil {
			continue
		}
		select {
		case <-p.done:
			continue
		default:
		}
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	grace := time.After(5 * time.Second)
	for _, p := range procs {
		if p == nil {
			continue
		}
		select {
		case <-p.done:
		case <-grace:
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	f.closeMgr()
	return nil
}

// DialManager opens the managing site of the fleet the spec describes, over
// TCP from the spec's m= address: the transport, its caller, a Manager
// with the spec's placement, and the receive loop that hands replies to the
// caller. The first transaction ID it allocates is txnIDBase+1. Its trace
// recorder holds only the manager's own inject spans — the sites' events
// stay in their processes. The returned close cancels in-flight calls,
// closes the transport and waits for the receive loop to exit.
func (s *ClusterSpec) DialManager(timeout time.Duration, txnIDBase uint64) (*cluster.Manager, func(), error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, nil, err
	}
	addrs, _, _ := s.AddrMap() // Config parsed it already
	tcp, err := transport.NewTCP(transport.TCPConfig{Self: core.ManagingSite, Addrs: addrs})
	if err != nil {
		return nil, nil, fmt.Errorf("deploy: manager transport: %w", err)
	}
	ep, err := tcp.Endpoint(core.ManagingSite)
	if err != nil {
		tcp.Close()
		return nil, nil, err
	}
	caller := transport.NewCaller(ep, timeout)
	cfg.ManagerTimeout = timeout
	cfg.Tracer = trace.NewRecorder(1 << 10)
	cfg.TxnIDBase = txnIDBase
	mgr, err := cluster.NewManager(caller, cfg)
	if err != nil {
		tcp.Close()
		return nil, nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			env, ok := ep.Recv()
			if !ok {
				return
			}
			caller.Deliver(env)
		}
	}()
	return mgr, func() {
		caller.CancelAll()
		tcp.Close()
		<-done
	}, nil
}

// FreeLoopbackAddrs allocates sites+1 distinct free TCP ports on the
// loopback interface and renders the netcfg address map (manager last).
// The listeners are closed before returning, so a raced port grab is
// possible but vanishingly unlikely in practice; raidsrv fails fast and
// loudly if it loses the race.
func FreeLoopbackAddrs(sites int) (string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	parts := make([]string, 0, sites+1)
	for i := 0; i <= sites; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", fmt.Errorf("deploy: allocate port: %w", err)
		}
		lns = append(lns, ln)
		if i < sites {
			parts = append(parts, fmt.Sprintf("%d=%s", i, ln.Addr().String()))
		} else {
			parts = append(parts, "m="+ln.Addr().String())
		}
	}
	return strings.Join(parts, ","), nil
}

// BuildRaidsrv compiles cmd/raidsrv into dir and returns the binary path.
// It must run with the module root reachable from the current directory
// (true for tests and for the soak CLI run from a checkout). The go
// toolchain is a build-time dependency only; deployments with a prebuilt
// binary never call this.
func BuildRaidsrv(dir string) (string, error) {
	bin := filepath.Join(dir, "raidsrv")
	cmd := exec.Command("go", "build", "-o", bin, "minraid/cmd/raidsrv")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("deploy: build raidsrv: %v\n%s", err, out)
	}
	return bin, nil
}
