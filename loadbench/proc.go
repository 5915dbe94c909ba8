package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one ebmfd or ebmfgw child process.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	addr   string // serving address, host:port
	debug  string // expvar listener, host:port
	logf   *os.File
	exited chan struct{}
}

// startDaemon launches bin with args plus loopback :0 listeners, -quiet and
// a loopback debug listener, and waits for both "listening on" lines.
func startDaemon(name, bin string, logDir string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-quiet", "-debug-addr", "127.0.0.1:0"}, args...)
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, logf: logf, exited: make(chan struct{})}
	ready := make(chan error, 1)
	go func() {
		// Reads stderr to EOF (so the child never blocks on a full pipe),
		// copying it to the log file and reporting the two addresses.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, "debug listening on "); i >= 0 {
				d.debug = strings.Fields(line[i+len("debug listening on "):])[0]
			} else if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				d.addr = strings.Fields(line[i+len("listening on "):])[0]
				sent = true
				ready <- nil
			}
		}
		if !sent {
			ready <- fmt.Errorf("%s exited before listening (see %s)", name, logf.Name())
		}
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case err := <-ready:
		if err != nil {
			d.stop()
			return nil, err
		}
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s: no listening line within 30s", name)
	}
	return d, nil
}

// stop sends SIGTERM, escalates to SIGKILL after 20s, and returns once the
// process has exited and its log is closed.
func (d *daemon) stop() {
	if d.cmd.Process != nil {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(20 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
	}
	d.logf.Close()
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// procStat is one daemon's CPU and memory accounting from /proc.
type procStat struct {
	cpuTicks int64 // utime + stime, in clock ticks
	hwmKB    int64 // VmHWM
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc/<pid>/stat.
const clockTicks = 100

func readProcStat(pid int) (procStat, error) {
	var ps procStat
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	ps.cpuTicks = ut + st
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			ps.hwmKB, _ = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		}
	}
	return ps, nil
}

// fleetStat sums procStat over every daemon.
func fleetStat(ds []*daemon) (procStat, error) {
	var sum procStat
	for _, d := range ds {
		ps, err := readProcStat(d.cmd.Process.Pid)
		if err != nil {
			return sum, err
		}
		sum.cpuTicks += ps.cpuTicks
		sum.hwmKB += ps.hwmKB
	}
	return sum, nil
}

// memStats is the part of a daemon's expvar memstats the benchmark reads.
type memStats struct {
	Mallocs    uint64
	TotalAlloc uint64
	NumGC      uint32
}

func (m *memStats) add(o memStats) {
	m.Mallocs += o.Mallocs
	m.TotalAlloc += o.TotalAlloc
	m.NumGC += o.NumGC
}

func (m memStats) sub(o memStats) memStats {
	return memStats{m.Mallocs - o.Mallocs, m.TotalAlloc - o.TotalAlloc, m.NumGC - o.NumGC}
}

// readMemStats fetches runtime.MemStats counters from the daemon's
// read-only expvar listener.
func readMemStats(d *daemon) (memStats, error) {
	var v struct{ Memstats memStats }
	err := getJSON("http://"+d.debug+"/debug/vars", &v)
	return v.Memstats, err
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.Unmarshal(b, v)
}

// hostCPU is the aggregate "cpu" line of /proc/stat.
type hostCPU struct{ total, steal int64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line := strings.SplitN(string(b), "\n", 2)[0]
	var h hostCPU
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the host's steal time over an interval, as a share of all
// CPU time in it.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// hostProbe times a fixed single-threaded computation that uses no program
// code (sorting the same 256 Ki pseudo-random integers) five times and
// returns the median in milliseconds. On a shared VM the host's speed can
// change between runs with no steal at all; this shows it.
func hostProbe() float64 {
	src := make([]uint64, 256<<10)
	x := uint64(88172645463325252)
	for i := range src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		src[i] = x
	}
	buf := make([]uint64, len(src))
	var ts []float64
	for k := 0; k < 5; k++ {
		copy(buf, src)
		t0 := time.Now()
		slices.Sort(buf)
		ts = append(ts, float64(time.Since(t0))/1e6)
	}
	sort.Float64s(ts)
	return ts[len(ts)/2]
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(b))[0], 64)
	return v
}

// resetPeakRSS restarts a process's VmHWM from its current RSS (Linux
// clear_refs value 5), so the peak read later covers only what follows.
func resetPeakRSS(d *daemon) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0)
}
