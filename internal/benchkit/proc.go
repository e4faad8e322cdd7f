package benchkit

import (
	"bytes"
	"fmt"
	"os"
	"strconv"

	"repro/internal/obs"
)

// clockTicksPerSecond is USER_HZ, the unit of the CPU fields of
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTicksPerSecond = 100

// ParseProcStatCPU extracts the process's user+system CPU time in seconds
// from the contents of /proc/<pid>/stat (fields 14 and 15). The command
// name (field 2) may contain spaces and parentheses, so fields are counted
// from the last ')'.
func ParseProcStatCPU(stat []byte) (float64, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("benchkit: no command field in proc stat %q", stat)
	}
	fields := bytes.Fields(stat[end+1:])
	// fields[0] is field 3 (state), so utime (14) and stime (15) are 11, 12.
	if len(fields) < 13 {
		return 0, fmt.Errorf("benchkit: proc stat has %d fields after the command, want >= 13", len(fields))
	}
	utime, err := strconv.ParseUint(string(fields[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("benchkit: proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(fields[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("benchkit: proc stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// ParseVmHWM extracts the peak resident set size in MB (10^6 bytes) from
// the contents of /proc/<pid>/status.
func ParseVmHWM(status []byte) (float64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("benchkit: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("benchkit: VmHWM: %w", err)
		}
		return float64(kb) * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("benchkit: no VmHWM line in proc status")
}

// ProcCPUSeconds reads the user+system CPU seconds pid has consumed.
func ProcCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return ParseProcStatCPU(b)
}

// ProcPeakRSSMB reads pid's peak resident set size in MB.
func ProcPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return ParseVmHWM(b)
}

// MetricsDelta is the difference between two /metrics scrapes taken around
// a measured phase.
type MetricsDelta struct {
	before, after obs.Samples
}

// DiffMetrics parses two Prometheus text expositions (obs.ParseText) so
// counters can be read as after − before.
func DiffMetrics(before, after []byte) (MetricsDelta, error) {
	b, err := obs.ParseText(before)
	if err != nil {
		return MetricsDelta{}, fmt.Errorf("benchkit: scrape before: %w", err)
	}
	a, err := obs.ParseText(after)
	if err != nil {
		return MetricsDelta{}, fmt.Errorf("benchkit: scrape after: %w", err)
	}
	return MetricsDelta{before: b, after: a}, nil
}

// Counter returns after − before for the first series matching name whose
// labels include every pair of labels. A series missing from either scrape
// is an error: a renamed counter must fail the run, not read as zero.
func (d MetricsDelta) Counter(name string, labels map[string]string) (float64, error) {
	b, ok := d.before.Value(name, labels)
	if !ok {
		return 0, fmt.Errorf("benchkit: series %s%v missing from the scrape before", name, labels)
	}
	a, ok := d.after.Value(name, labels)
	if !ok {
		return 0, fmt.Errorf("benchkit: series %s%v missing from the scrape after", name, labels)
	}
	return a - b, nil
}

// Sum returns after − before summed over every series matching name whose
// labels include every pair of labels (0 when none matches).
func (d MetricsDelta) Sum(name string, labels map[string]string) float64 {
	return sumSeries(d.after, name, labels) - sumSeries(d.before, name, labels)
}

func sumSeries(ss obs.Samples, name string, labels map[string]string) float64 {
	total := 0.0
next:
	for _, s := range ss {
		if s.Name != name {
			continue
		}
		for k, v := range labels {
			if s.Labels[k] != v {
				continue next
			}
		}
		total += s.Value
	}
	return total
}

// Gauge returns the series' value in the scrape after the phase.
func (d MetricsDelta) Gauge(name string, labels map[string]string) (float64, error) {
	a, ok := d.after.Value(name, labels)
	if !ok {
		return 0, fmt.Errorf("benchkit: series %s%v missing from the scrape after", name, labels)
	}
	return a, nil
}
