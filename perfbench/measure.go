package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

// heapAllocs is the cumulative count of heap bytes allocated.
func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// heapInUse is the bytes of live and not-yet-swept heap objects.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// procWriteBytes is the storage bytes this process caused to be written
// (/proc/self/io write_bytes).
func procWriteBytes() (uint64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		var v uint64
		if _, err := fmt.Sscanf(sc.Text(), "write_bytes: %d", &v); err == nil {
			return v, nil
		}
	}
	return 0, fmt.Errorf("no write_bytes in /proc/self/io")
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSteal returns the machine's CPU ticks stolen by the hypervisor and
// all CPU ticks, from /proc/stat; zeros where it is unreadable.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields); i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		if i == 8 {
			steal = v
		}
		if i <= 8 {
			total += v
		}
	}
	return steal, total
}

// counters is a snapshot of the process-wide costs a window is charged.
type counters struct {
	steal, ticks uint64
	cpu          time.Duration
	allocs       uint64
	writeBytes   uint64
	gcCycles     uint32
	gcPause      time.Duration
}

func snapshot() (counters, error) {
	wb, err := procWriteBytes()
	if err != nil {
		return counters{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, ticks := cpuSteal()
	return counters{
		steal: steal, ticks: ticks,
		cpu: cpuTime(), allocs: heapAllocs(), writeBytes: wb,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
	}, nil
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// quantile returns the q-quantile of xs (nearest rank); 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
