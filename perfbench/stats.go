package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks (so the 0.5-quantile of an even
// count is the mean of the middle two). xs need not be sorted; it is not
// modified. NaN for an empty input.
func percentile[T int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedPercentile(s, q)
}

func sortedPercentile[T int64 | float64](s []T, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(s[lo])*(1-frac) + float64(s[hi])*frac
}

// tailQuantile is the highest quantile to report for n samples: 0.99, or
// lower so that at least ten samples lie beyond it. Zero when n < 20.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0
	}
	q := math.Floor(100*(1-10/float64(n))) / 100
	return math.Min(0.99, q)
}

// latency is a timing summary reported with its sample count: median and
// tail in milliseconds.
type latency struct {
	N      int     `json:"n"`
	P50MS  float64 `json:"p50_ms"`
	TailQ  string  `json:"tail_q,omitempty"`
	TailMS float64 `json:"tail_ms,omitempty"`
}

func summarize(ns []int64) latency {
	l := latency{N: len(ns)}
	if len(ns) == 0 {
		return l
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	l.P50MS = sortedPercentile(s, 0.5) / 1e6
	if q := tailQuantile(len(s)); q > 0 {
		l.TailQ = "p" + strconv.FormatFloat(100*q, 'f', -1, 64)
		l.TailMS = sortedPercentile(s, q) / 1e6
	}
	return l
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]int64, len(ds))
	for i, d := range ds {
		xs[i] = int64(d)
	}
	return time.Duration(percentile(xs, 0.5))
}

// cpuStat is the aggregate "cpu" line of /proc/stat.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var st cpuStat
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is counted in user
			st.total += n
		}
		if i == 7 {
			st.steal = n
		}
	}
	return st
}

// stealShare is the host steal share of all CPU time since before.
func (s cpuStat) stealShare(before cpuStat) float64 {
	if s.total <= before.total {
		return 0
	}
	return float64(s.steal-before.steal) / float64(s.total-before.total)
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// referenceLoop times a fixed standard-library-only workload (hashing and
// sorting fixed data), so a run on a slowed host is recognisable.
func referenceLoop() time.Duration {
	data := make([]byte, 1<<16)
	for i := range data {
		data[i] = byte(i * 7)
	}
	ints := make([]int, 1<<15)
	start := time.Now()
	var sum [32]byte
	for r := 0; r < 40; r++ {
		sum = sha256.Sum256(data)
		for i := range ints {
			ints[i] = (i*2654435761 + int(sum[i%32]) + r) % 100003
		}
		sort.Ints(ints)
	}
	return time.Since(start)
}

// diagnostics are printed with every run; they are not metrics.
type diagnostics struct {
	StealShare       float64   `json:"host_steal_share"`
	DataFS           string    `json:"data_dir_fs"`
	Nproc            int       `json:"nproc"`
	ClientGOMAXPROCS int       `json:"client_gomaxprocs"`
	ServerGOMAXPROCS string    `json:"server_gomaxprocs"`
	ReferenceLoopMS  float64   `json:"reference_loop_ms"`
	Fsync            string    `json:"fsync"`
	Clients          int       `json:"clients"`
	Nodes            int       `json:"nodes"`
	SetupRepeats     int       `json:"setup_repeats"`
	SetupSeconds     []float64 `json:"setup_s_each"`
}

func newDiagnostics(p *Plan, res *httpResult, ref time.Duration) diagnostics {
	d := diagnostics{
		StealShare:       res.stealShare,
		DataFS:           res.dataFS,
		Nproc:            runtime.NumCPU(),
		ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS: fmt.Sprintf("default (%d)", runtime.NumCPU()),
		ReferenceLoopMS:  ref.Seconds() * 1e3,
		Fsync:            "always",
		Clients:          p.Clients,
		Nodes:            p.Nodes,
		SetupRepeats:     len(res.setups),
	}
	for _, s := range res.setups {
		d.SetupSeconds = append(d.SetupSeconds, s.Seconds())
	}
	return d
}

// quietQuantile picks, among the per-block figures of a run, the one the
// timing metrics report: the best quarter's edge, i.e. the 0.25-quantile of
// a latency or CPU cost and the 0.75-quantile of a rate. Interference from
// other tenants of a shared host (steal, contention for its cores and
// memory) comes in phases of seconds to minutes and only ever slows a
// block down; a run's figure then moves only when such a phase covers more
// than three quarters of it, while a change to the program moves every
// block and so the figure.
const quietQuantile = 0.25

// blockStats are the timing metrics of the timed part taken over time
// blocks: the timed part is cut at each CPU tick into blocks of
// 1/blocksPerRun of the nominal run, and each metric is the quietQuantile
// figure over the blocks of that block's op latency median, fresh latency
// median, step rate, or server CPU per step. Blocks shorter than half the
// nominal block (the tail) are left out. The per-block figures are kept
// for the report.
type blockStats struct {
	Blocks   int       `json:"blocks"`
	OpP50MS  float64   `json:"op_p50_ms"`
	FreshP50 float64   `json:"fresh_p50_ms"`
	OpsS     float64   `json:"ops_s"`
	CPUPerOp float64   `json:"cpu_us_per_op"`
	EachOp   []float64 `json:"each_op_p50_ms,omitempty"`
	EachRate []float64 `json:"each_ops_s,omitempty"`
	EachCPU  []float64 `json:"each_cpu_us_per_op,omitempty"`
}

func blockFigures(res *httpResult, nominal time.Duration) blockStats {
	var op, fresh, rate, cpu []float64
	for k := 0; k+1 < len(res.ticks); k++ {
		a, b := res.ticks[k], res.ticks[k+1]
		if b.at-a.at < nominal/2 {
			continue
		}
		var o, f []int64
		for i, done := range res.doneNS {
			if time.Duration(done) >= a.at && time.Duration(done) < b.at {
				o = append(o, res.opNS[i])
				f = append(f, res.freshNS[i])
			}
		}
		if len(o) == 0 {
			continue
		}
		op = append(op, percentile(o, 0.5)/1e6)
		fresh = append(fresh, percentile(f, 0.5)/1e6)
		rate = append(rate, float64(len(o))/(b.at-a.at).Seconds())
		cpu = append(cpu, float64((b.cpu-a.cpu).Microseconds())/float64(len(o)))
	}
	return blockStats{
		Blocks:   len(op),
		OpP50MS:  percentile(op, quietQuantile),
		FreshP50: percentile(fresh, quietQuantile),
		OpsS:     percentile(rate, 1-quietQuantile),
		CPUPerOp: percentile(cpu, quietQuantile),
		EachOp:   op,
		EachRate: rate,
		EachCPU:  cpu,
	}
}
