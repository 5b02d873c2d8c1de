package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cbes/internal/service"
)

// daemon is one cbesd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	db      string
	boot    time.Duration // exec to the "serving" line
	bootCPU time.Duration // CPU time the daemon spent until that line
	drained chan struct{} // closed when stdout reaches EOF
}

var servingRe = regexp.MustCompile(`^cbesd: serving .* on (\S+), apps:`)

// startDaemon execs cbesd on an ephemeral port with the given database
// directory and waits for its serving line. The boot time covers
// calibration and profiling when db is empty.
func startDaemon(bin, db, apps, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-db", db, "-apps", apps)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start cbesd: %w", err)
	}
	logf.Close() // the child holds its own descriptor
	d := &daemon{cmd: cmd, db: db, drained: make(chan struct{})}
	lines := make(chan string, 1) // the serving line, sent once
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if m := servingRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case lines <- m[1]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, out) // keep the pipe open until exit
	}()
	select {
	case addr := <-lines:
		d.boot = time.Since(start)
		d.addr = addr
		if d.bootCPU, err = d.cpu(); err != nil {
			d.stop()
			return nil, err
		}
		return d, nil
	case <-d.drained:
		_ = cmd.Wait()
		return nil, fmt.Errorf("cbesd exited before serving (log %s)", logPath)
	case <-time.After(90 * time.Second):
		d.stop()
		return nil, fmt.Errorf("cbesd did not serve within 90s (log %s)", logPath)
	}
}

// cpu is the daemon's CPU time so far, user plus system, over all its
// threads.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

// parseStatCPU returns utime plus stime from a /proc/<pid>/stat line:
// fields 14 and 15, in USER_HZ (100) ticks. The command name, field 2,
// is parenthesised and may hold spaces, so fields are counted from the
// last ')'. With CONFIG_PARAVIRT_TIME_ACCOUNTING the kernel leaves time
// stolen by the hypervisor out of these, so on a shared host they follow
// the program's own work where wall time follows the neighbours too.
func parseStatCPU(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(line[i+1:]) // f[0] is field 3, the state
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the name", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse stat CPU: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * (time.Second / 100), nil
}

// selfCPU is the benchmark process's CPU time so far, user plus system.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// selfPeakRSSMB is peakRSSMB of the benchmark process itself.
func selfPeakRSSMB() (float64, error) { return peakRSSMB("/proc/self/status") }

// resetSelfPeakRSS sets the benchmark process's VmHWM back to its
// current resident set (proc(5), clear_refs value 5), so a later
// selfPeakRSSMB covers only what runs after the reset.
func resetSelfPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

func peakRSSMB(statusPath string) (float64, error) {
	raw, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

// stop terminates the daemon and waits for it: SIGTERM first (the
// daemon's clean shutdown path), SIGKILL if it has not exited in 10s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait()
}

// bootDaemons boots cbesd n times, each against a fresh empty database,
// and keeps the last one serving. It returns each boot's CPU seconds
// too, and logs their wall times.
func bootDaemons(bin, workdir, apps string, n int) (*daemon, []float64, error) {
	var boots, walls []float64
	for i := 0; i < n; i++ {
		db := filepath.Join(workdir, fmt.Sprintf("db-%d", i))
		if err := os.RemoveAll(db); err != nil {
			return nil, nil, err
		}
		d, err := startDaemon(bin, db, apps, filepath.Join(workdir, fmt.Sprintf("cbesd-%d.log", i)))
		if err != nil {
			return nil, nil, err
		}
		boots = append(boots, d.bootCPU.Seconds())
		walls = append(walls, d.boot.Seconds())
		if i == n-1 {
			logf("setup: %d boots, CPU %v s, wall %v s", n, boots, walls)
			return d, boots, nil
		}
		d.stop()
	}
	return nil, nil, fmt.Errorf("no boots requested")
}

// promMetrics is one scrape of the daemon's Prometheus exposition,
// keyed by series name including labels.
type promMetrics map[string]float64

// scrape fetches the daemon's counters over the Metrics RPC.
func scrape(c *service.Client) (promMetrics, error) {
	rep, err := c.Metrics(service.FormatPrometheus)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	return parseProm(rep.Text), nil
}

// parseProm parses Prometheus text exposition lines "series value".
func parseProm(text string) promMetrics {
	m := promMetrics{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m
}

// delta is after minus before for one series (0 when absent).
func delta(before, after promMetrics, series string) float64 {
	return after[series] - before[series]
}
