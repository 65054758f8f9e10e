package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// reaper owns everything a run must not leave behind: kokod children and
// scratch directories. Every exit path (normal return, failed assert,
// signal, panic) goes through reapAll.
var reaper = struct {
	mu       sync.Mutex
	children map[*child]bool
	dirs     map[string]bool
}{children: map[*child]bool{}, dirs: map[string]bool{}}

// reapAll kills and waits for every live child, then removes every scratch
// directory. Safe to call more than once.
func reapAll() {
	reaper.mu.Lock()
	children := make([]*child, 0, len(reaper.children))
	for c := range reaper.children {
		children = append(children, c)
	}
	dirs := make([]string, 0, len(reaper.dirs))
	for d := range reaper.dirs {
		dirs = append(dirs, d)
	}
	reaper.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		removeScratch(d)
	}
}

// reapOnSignal reaps and exits when the benchmark is interrupted.
func reapOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-ch
		reapAll()
		os.Exit(130)
	}()
}

// newScratch creates a scratch directory under root that reapAll removes.
func newScratch(root, prefix string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, prefix)
	if err != nil {
		return "", err
	}
	reaper.mu.Lock()
	reaper.dirs[dir] = true
	reaper.mu.Unlock()
	return dir, nil
}

func removeScratch(dir string) {
	os.RemoveAll(dir)
	reaper.mu.Lock()
	delete(reaper.dirs, dir)
	reaper.mu.Unlock()
}

// child is one running kokod.
type child struct {
	name string
	cmd  *exec.Cmd
	url  string
	args []string
	bin  string
	log  string
	done chan struct{} // closed when the process has been waited for
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startKokod launches bin with args plus a fresh -addr, its output going to
// logPath. The child runs with GOMAXPROCS=2 and dies with the benchmark.
func startKokod(name, bin, logPath string, args []string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own copy
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, url: "http://" + addr, args: args, bin: bin, log: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(c.done)
	}()
	reaper.mu.Lock()
	reaper.children[c] = true
	reaper.mu.Unlock()
	return c, nil
}

// restart launches the same binary with the same arguments again (after a
// kill), on a fresh port.
func (c *child) restart() (*child, error) {
	return startKokod(c.name, c.bin, c.log, c.args)
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill sends SIGKILL and waits until the process has ended.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
	reaper.mu.Lock()
	delete(reaper.children, c)
	reaper.mu.Unlock()
}

// waitHealthy polls /v1/healthz until it answers 200, the child exits, or
// the timeout passes.
func (c *child) waitHealthy(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-c.done:
			return fmt.Errorf("%s exited during start-up: %s", c.name, tailOf(c.log, 400))
		default:
		}
		resp, err := hc.Get(c.url + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s: %s", c.name, timeout, tailOf(c.log, 400))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func tailOf(path string, n int) string {
	b, _ := os.ReadFile(path)
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return strings.TrimSpace(string(b))
}

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat counts CPU time in
// these. It is 100 on every Linux build Go supports.
const clockTick = 100

// cpuSeconds is the child's user + system CPU time so far.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.pid()), "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime + stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may hold spaces, so
// fields are counted from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in stat line")
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMB is the child's resident-set high-water mark (VmHWM).
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.pid()), "status"))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in status")
}

// dirBytes sums the sizes of the regular files under path.
func dirBytes(path string) (int64, error) {
	var n int64
	err := filepath.Walk(path, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
