package bench

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// target is the appclassd instance a run drives: a daemon process, or
// (in the smoke test) an in-process server.
type target interface {
	URL() string
	// CPU returns the instance's cumulative user+system CPU time.
	CPU() (time.Duration, error)
	// RSSKB returns the instance's resident set (VmRSS).
	RSSKB() (int64, error)
	// Stop shuts the instance down gracefully and waits for it.
	Stop() error
	// Kill stops the instance immediately and waits for it.
	Kill() error
}

// BuildDaemon compiles cmd/appclassd from the tree at root into
// bin/appclassd and returns its path.
func BuildDaemon(ctx context.Context, root, bin string) (string, error) {
	out := filepath.Join(bin, "appclassd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/appclassd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build appclassd: %v\n%s", err, msg)
	}
	return out, nil
}

// daemon is one appclassd process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited and been reaped

	mu   sync.Mutex
	tail []string // last lines of the daemon's log, for errors
}

// readyTimeout bounds how long a daemon may take from exec to its first
// /readyz 200; readyPoll is the probe cadence, fine enough not to
// quantize a set-up of a few milliseconds.
const (
	readyTimeout = 60 * time.Second
	readyPoll    = 200 * time.Microsecond
)

// startDaemon execs bin with args (which must include -addr
// 127.0.0.1:0) and waits for its first /readyz 200. It returns the
// daemon and the time from exec to ready.
func startDaemon(bin string, args []string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	// A daemon must not outlive the benchmark, even one that crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec appclassd: %w", err)
	}
	go d.watch(stderr, addrc)

	var addr string
	select {
	case addr = <-addrc:
	case <-d.done:
		return nil, 0, fmt.Errorf("appclassd exited before listening: %s", d.logTail())
	case <-time.After(readyTimeout):
		d.Kill()
		return nil, 0, fmt.Errorf("appclassd did not listen within %v: %s", readyTimeout, d.logTail())
	}
	d.url = "http://" + addr
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("appclassd exited before ready: %s", d.logTail())
		case <-time.After(readyPoll):
		}
		if time.Since(t0) > readyTimeout {
			d.Kill()
			return nil, 0, fmt.Errorf("appclassd not ready within %v: %s", readyTimeout, d.logTail())
		}
	}
}

// watch reads the daemon's log until it closes, reporting the listen
// address, then reaps the process.
func (d *daemon) watch(stderr io.Reader, addrc chan<- string) {
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if _, addr, ok := strings.Cut(line, "appclassd: listening on "); ok {
			select {
			case addrc <- strings.TrimSpace(addr):
			default:
			}
		}
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
	d.cmd.Wait()
	close(d.done)
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

func (d *daemon) URL() string { return d.url }

// stopGrace is how long a SIGTERMed daemon may spend flushing its live
// sessions before it is killed. Nothing is measured after the drain, and
// flushing hundreds of long sessions into a large store takes far
// longer than the run is worth.
const stopGrace = time.Second

// stopTimeout bounds an in-process graceful shutdown.
const stopTimeout = 30 * time.Second

func (d *daemon) Stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(stopGrace):
		return d.Kill()
	}
	if st := d.cmd.ProcessState; st != nil && !st.Success() {
		return fmt.Errorf("appclassd exited with %v: %s", st, d.logTail())
	}
	return nil
}

func (d *daemon) Kill() error {
	d.cmd.Process.Kill()
	<-d.done
	return nil
}

func (d *daemon) CPU() (time.Duration, error) { return procCPU(strconv.Itoa(d.cmd.Process.Pid)) }
func (d *daemon) RSSKB() (int64, error)       { return procRSS(strconv.Itoa(d.cmd.Process.Pid)) }

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every mainstream Linux configuration).
const clockTick = 10 * time.Millisecond

// procCPU reads utime+stime from /proc/<pid>/stat.
func procCPU(pid string) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%s/stat cpu times", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procRSS reads VmRSS (kB) from /proc/<pid>/status.
func procRSS(pid string) (int64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%s/status", pid)
}

// tmpfsMagic is TMPFS_MAGIC from linux/magic.h.
const tmpfsMagic = 0x01021994

// requireDisk refuses a working directory on tmpfs: fsync there is free,
// so the durable workloads would measure nothing.
func requireDisk(dir string) error {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return err
	}
	if st.Type == tmpfsMagic {
		return fmt.Errorf("%s is on tmpfs; the benchmark needs a disk-backed directory", dir)
	}
	return nil
}

// syncTree fsyncs every file and directory under dir, so that the
// daemon's own fsyncs in the measured phases do not wait behind the
// writeback of state the benchmark wrote just before.
func syncTree(dir string) error {
	return filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

// procSteal reads the machine's cumulative CPU time stolen by the
// hypervisor and its total CPU time, in clock ticks, from /proc/stat.
func procSteal() (steal, total float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat cpu line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total, nil
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(f, in); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}
