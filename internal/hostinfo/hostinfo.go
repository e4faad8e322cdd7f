// Package hostinfo reports coarse host facts cmd/bench stamps into its
// result object, so a benchmark result is interpretable on its own — a
// "speedup" only means something next to the core count and CPU model it
// was measured on.
package hostinfo

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"sync"
)

// NumCPU returns the logical CPU count of the host.
func NumCPU() int { return runtime.NumCPU() }

var (
	modelOnce sync.Once
	model     string
)

// CPUModel returns the host CPU model string ("model name" from
// /proc/cpuinfo on Linux), or "unknown" when it cannot be determined. The
// file is read once and cached.
func CPUModel() string {
	modelOnce.Do(func() { model = readCPUModel("/proc/cpuinfo") })
	return model
}

func readCPUModel(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		// x86 exposes "model name"; some arm kernels use "Processor".
		for _, key := range []string{"model name", "Processor"} {
			if strings.HasPrefix(line, key) {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					if v := strings.TrimSpace(line[i+1:]); v != "" {
						return v
					}
				}
			}
		}
	}
	return "unknown"
}
