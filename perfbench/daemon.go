package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one mocktailsd process started by the benchmark.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:<port>
	log   string // path of the captured stderr
	exit  chan error
	flags []string
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the daemon binds it; startDaemon retries if another
// process wins the race.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin with flags on a fresh loopback port and waits
// until /healthz answers. stderr goes to logPath.
func startDaemon(hc *http.Client, bin, logPath string, flags []string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		d, err := spawn(hc, bin, logPath, port, flags)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func spawn(hc *http.Client, bin, logPath string, port int, flags []string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logPath, exit: make(chan error, 1), flags: args}
	go func() { d.exit <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exit:
			d.exit <- err
			return nil, fmt.Errorf("mocktailsd exited during start (%v): %s", err, d.logTail())
		default:
		}
		if resp, err := hc.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, errors.New("mocktailsd did not answer /healthz within 20s")
}

// stop sends SIGTERM (a graceful drain), escalates to SIGKILL after
// 10s, and waits for the process to end.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exit:
		d.exit <- err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		d.exit <- <-d.exit
	}
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

func (d *daemon) procFile(name string) string {
	return filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), name)
}

// resetPeakRSS clears the kernel's VmHWM high-water mark, so a later
// peakRSSMB reports the peak since this call.
func (d *daemon) resetPeakRSS() error {
	return os.WriteFile(d.procFile("clear_refs"), []byte("5"), 0)
}

// peakRSSMB reads the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(d.procFile("status"))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// counters scrapes /metrics and returns the named counter values
// (Prometheus names, e.g. serve_store_hits). Missing counters read 0.
func (d *daemon) counters(hc *http.Client, names ...string) (map[string]float64, error) {
	resp, err := hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, err
			}
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}
