package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"minup/internal/frontend"
	"minup/internal/frontend/depinf"
	"minup/internal/frontend/suppress"
	"minup/internal/workload"
)

// OpKind is one kind of request a step sends.
type OpKind uint8

const (
	// OpRead is GET /policies/{name}/solve.
	OpRead OpKind = iota
	// OpPut is PUT /policies/{name}.
	OpPut
	// OpAppend is POST /policies/{name}/constraints.
	OpAppend
	// OpDelete is DELETE /policies/{name}.
	OpDelete
	// OpProblem is POST /problems/{family}?name={name}.
	OpProblem
)

var opNames = [...]string{"read", "put", "append", "delete", "problem"}

func (k OpKind) String() string { return opNames[k] }

// MarshalText makes plans readable in their JSON dump.
func (k OpKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Op is one request of a workload's sequence together with the answer the
// catalog model says it must get. Every mutation is followed by a read of
// the same policy; Version is the version both must report (0 for a
// delete, whose read-back must be a 404).
type Op struct {
	Kind    OpKind `json:"kind"`
	Name    string `json:"name"`
	Wait    bool   `json:"wait,omitempty"`
	Family  string `json:"family,omitempty"`
	Lattice string `json:"lattice,omitempty"`
	// Text is the constraint text of a put or append, or the instance JSON
	// of a problem.
	Text    string `json:"text,omitempty"`
	Version uint64 `json:"version"`
	// policyLattice and policyText are the source texts the op stores in
	// the catalog: a put's own, or a problem's compiled ones.
	policyLattice, policyText string
}

// Mutation reports whether the op changes the catalog.
func (o Op) Mutation() bool { return o.Kind != OpRead }

// Plan is the fixed op sequence of one workload run, made from the seed
// before anything is timed. Each client replays its own lists in order:
// Setup (part of setup_s), then Warmup (untimed), then Timed.
type Plan struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Clients  int      `json:"clients"`
	Nodes    int      `json:"nodes"`
	Setup    [][]Op   `json:"setup"`
	Warmup   [][]Op   `json:"warmup"`
	Timed    [][]Op   `json:"timed"`
	Final    []Policy `json:"final"`
}

// Policy is one policy's state in the catalog model after the whole plan.
type Policy struct {
	Name    string   `json:"name"`
	Version uint64   `json:"version"`
	Lattice string   `json:"lattice"`
	Texts   []string `json:"texts"`
}

// Workload describes one workload and how long its fixed sequence is per
// second of --seconds; README.md records why each exists.
type Workload struct {
	Name string
	// StepsPerSecond sets the timed sequence length: seconds × this.
	StepsPerSecond int
	// WarmupSteps is the untimed prefix length, summed over clients.
	WarmupSteps int
	build       func(p *Plan, steps, warm int)
}

// Workloads lists every workload in a fixed order.
var Workloads = []Workload{
	{
		Name:           "hot_read",
		StepsPerSecond: 6000,
		WarmupSteps:    3000,
		build:          buildHotRead,
	},
	{
		Name:           "write_fresh",
		StepsPerSecond: 400,
		WarmupSteps:    300,
		build:          buildWriteFresh,
	},
	{
		Name:           "cold_create",
		StepsPerSecond: 110,
		WarmupSteps:    30,
		build:          buildColdCreate,
	},
	{
		Name:           "replicated_write",
		StepsPerSecond: 280,
		WarmupSteps:    60,
		build:          buildReplicatedWrite,
	},
}

// LookupWorkload returns the named workload.
func LookupWorkload(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// NewPlan builds the fixed op sequence of workload w for seed and a run of
// the given seconds. It is a pure function of its arguments: every random
// draw comes from a generator seeded from (seed, workload, purpose), so one
// workload's sequence never depends on another's.
func NewPlan(w Workload, seed int64, seconds int) *Plan {
	p := newPlan(w, seed, w.StepsPerSecond*seconds, w.WarmupSteps)
	p.Seconds = seconds
	return p
}

// blocksPerRun is how many equal time blocks the timed part is cut into
// for the block figures (see blockStats).
const blocksPerRun = 30

// blockLen is the length of one time block: 1/blocksPerRun of the nominal
// run.
func (p *Plan) blockLen() time.Duration {
	if p.Seconds < 1 {
		return time.Second / 4
	}
	return time.Duration(p.Seconds) * time.Second / blocksPerRun
}

// newPlan builds a plan with explicit timed and warm-up lengths.
func newPlan(w Workload, seed int64, steps, warm int) *Plan {
	p := &Plan{Workload: w.Name, Seed: seed, Clients: 1, Nodes: 1}
	w.build(p, steps, warm)
	return p
}

// defaultClients is write_fresh's closed-loop client count: one per core,
// at most two, so the sequence is the same on every machine with two or
// more cores. The workloads in BENCHMARK.json use one client: a second
// one fills both cores of a 2-core machine, and its latencies then move
// with every slowdown of the host by more than one client's do.
func defaultClients() int { return min(runtime.NumCPU(), 2) }

// subSeed derives an independent generator seed for one purpose.
func subSeed(seed int64, parts ...any) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", seed)
	for _, p := range parts {
		fmt.Fprintf(h, "/%v", p)
	}
	return int64(h.Sum64() &^ (1 << 63))
}

func rngFor(seed int64, parts ...any) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, parts...)))
}

// paperSize is the paper-family size knob for hot_read's warm policies and
// cold_create's set-up: 6 × 8 = 48 attributes, 144 constraints.
const paperSize = 8

// writePaperSize is the size knob of the write workloads' policies: 6 × 20
// = 120 attributes, 360 constraints. At this size a step's computation on
// the servers outweighs its hand-offs between processes, whose cost moves
// most with the load on a shared host.
const writePaperSize = 20

// basePolicy generates one paper-family policy text of the given size.
func basePolicy(size int, seed int64, parts ...any) workload.FamilyInstance {
	fi, err := workload.GenerateFamily("paper", subSeed(seed, parts...), size)
	if err != nil {
		panic(fmt.Sprintf("perfbench: paper family: %v", err)) // sizes are fixed and valid
	}
	return fi
}

var chainLevels = []string{"U", "C", "S", "TS"}

// appendText draws 1..3 lower-bound constraint lines over the first attrs
// of the paper family's attribute names a000, a001, …, sometimes naming a
// fresh attribute so the repair path extends the solution. Lower bounds
// alone keep every policy solvable.
func appendText(rng *rand.Rand, attrs int, fresh *int) string {
	attr := func() int { return rng.Intn(attrs) }
	var b strings.Builder
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		x := attr()
		lhs := fmt.Sprintf("a%03d", x)
		if rng.Intn(20) == 0 {
			lhs = fmt.Sprintf("n%04d", *fresh)
			*fresh++
			x = -1
		}
		y := -2
		if rng.Intn(3) == 0 {
			for y = attr(); y == x; y = attr() {
			}
			lhs = fmt.Sprintf("lub(%s, a%03d)", lhs, y)
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "%s >= %s\n", lhs, chainLevels[rng.Intn(len(chainLevels))])
			continue
		}
		z := attr()
		for z == x || z == y {
			z = attr()
		}
		fmt.Fprintf(&b, "%s >= a%03d\n", lhs, z)
	}
	return b.String()
}

// model tracks the catalog state a sequence produces, so each op carries
// the version it must be acked at.
type model map[string]*Policy

// putOp records a put or problem op in the model and sets its version.
func (m model) putOp(op *Op) {
	if op.Kind == OpPut {
		op.policyLattice, op.policyText = op.Lattice, op.Text
	}
	op.Version = m.put(op.Name, op.policyLattice, op.policyText)
}

func (m model) put(name, lat, text string) uint64 {
	p := m[name]
	if p == nil {
		p = &Policy{Name: name}
		m[name] = p
	}
	p.Version++
	p.Lattice = lat
	p.Texts = []string{text}
	return p.Version
}

func (m model) append(name, text string) uint64 {
	p := m[name]
	p.Version++
	p.Texts = append(p.Texts, text)
	return p.Version
}

// finalize records the model's end state in the plan, sorted by name.
func (m model) finalize(p *Plan) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p.Final = append(p.Final, *m[n])
	}
}

// preload is the shared set-up of the read and write workloads: each
// policy is created by one put and then given appendBatches appended
// batches, the last with ?wait=1 so it ends warm.
func preload(m model, seed int64, names []string, size, appendBatches int) []Op {
	var ops []Op
	for _, name := range names {
		fi := basePolicy(size, seed, "preload", name)
		op := Op{Kind: OpPut, Name: name, Lattice: fi.Lattice, Text: fi.Constraints}
		m.putOp(&op)
		ops = append(ops, op)
		rng := rngFor(seed, "preload-appends", name)
		fresh := 0
		for j := 0; j < appendBatches; j++ {
			text := appendText(rng, 6*size, &fresh)
			ops = append(ops, Op{Kind: OpAppend, Name: name, Text: text, Wait: j == appendBatches-1,
				Version: m.append(name, text)})
		}
	}
	return ops
}

const hotPolicies, hotAppends = 256, 8

func buildHotRead(p *Plan, steps, warm int) {
	m := model{}
	names := policyNames("hot", hotPolicies)
	setup := preload(m, p.Seed, names, paperSize, hotAppends)
	p.Setup = split(setup, p.Clients)
	p.Warmup = make([][]Op, p.Clients)
	p.Timed = make([][]Op, p.Clients)
	// Popularity rank → policy: a seeded permutation, so the hot set is
	// not just the first names.
	perm := rngFor(p.Seed, "hot_read", "perm").Perm(hotPolicies)
	for c := 0; c < p.Clients; c++ {
		zipf := rand.NewZipf(rngFor(p.Seed, "hot_read", "zipf", c), 1.1, 1, hotPolicies-1)
		draw := func(n int) []Op {
			ops := make([]Op, n)
			for i := range ops {
				name := names[perm[zipf.Uint64()]]
				ops[i] = Op{Kind: OpRead, Name: name, Version: m[name].Version}
			}
			return ops
		}
		p.Warmup[c] = draw(warm / p.Clients)
		p.Timed[c] = draw(steps / p.Clients)
	}
	m.finalize(p)
}

const (
	writePolicies = 32
	writeAppends  = 8
	// maxHistory bounds a policy's appended batches: the next mutation on
	// a policy that reached it is a replacing put, so the history length,
	// and with it the cost of each mutation, stays stationary.
	maxHistory = 16
)

// writeStream is the mutation generator shared by write_fresh and
// replicated_write: client c owns the policies in names and applies a
// seeded stream of appends (most), replacing puts (when a history is
// full), deletes (rare) and re-creates (the next op on a deleted name).
// phase ("warmup" or "timed") keeps the generated instances of the two
// calls per client apart.
func writeStream(m model, seed int64, c int, phase string, names []string, n int, rng *rand.Rand, fresh *int) []Op {
	ops := make([]Op, 0, n)
	for len(ops) < n {
		name := names[rng.Intn(len(names))]
		pol := m[name]
		switch {
		case pol == nil:
			fi := basePolicy(writePaperSize, seed, "recreate", c, phase, len(ops), name)
			op := Op{Kind: OpPut, Name: name, Lattice: fi.Lattice, Text: fi.Constraints}
			m.putOp(&op)
			ops = append(ops, op)
		case rng.Intn(100) == 0:
			delete(m, name)
			ops = append(ops, Op{Kind: OpDelete, Name: name})
		case len(pol.Texts) > maxHistory:
			fi := basePolicy(writePaperSize, seed, "replace", c, phase, len(ops), name)
			op := Op{Kind: OpPut, Name: name, Lattice: fi.Lattice, Text: fi.Constraints}
			m.putOp(&op)
			ops = append(ops, op)
		default:
			text := appendText(rng, 6*writePaperSize, fresh)
			ops = append(ops, Op{Kind: OpAppend, Name: name, Text: text, Version: m.append(name, text)})
		}
	}
	return ops
}

// buildWrites fills a write workload's plan for the given client count:
// writePolicies preloaded policies split into disjoint per-client name
// sets, then one mutation stream per client.
func buildWrites(p *Plan, steps, warm int) {
	m := model{}
	p.Setup = make([][]Op, p.Clients)
	p.Warmup = make([][]Op, p.Clients)
	p.Timed = make([][]Op, p.Clients)
	per := writePolicies / p.Clients
	for c := 0; c < p.Clients; c++ {
		names := policyNames(fmt.Sprintf("w%d-", c), per)
		p.Setup[c] = preload(m, p.Seed, names, writePaperSize, writeAppends)
		rng := rngFor(p.Seed, "write_stream", c)
		fresh := 0
		p.Warmup[c] = writeStream(m, p.Seed, c, "warmup", names, warm/p.Clients, rng, &fresh)
		p.Timed[c] = writeStream(m, p.Seed, c, "timed", names, steps/p.Clients, rng, &fresh)
	}
	m.finalize(p)
}

func buildWriteFresh(p *Plan, steps, warm int) {
	p.Clients = defaultClients()
	buildWrites(p, steps, warm)
}

func buildReplicatedWrite(p *Plan, steps, warm int) {
	p.Clients, p.Nodes = 1, 3
	buildWrites(p, steps, warm)
}

// Cold-create instance shapes. Each op replaces one name of a fixed pool
// with a generated instance, cycling paper → suppress → depinf: a 402-
// attribute, 1206-constraint paper set, a 20×21 Kao suppress grid and a
// 504-attribute depinf DAG, sized so each costs about as much to solve.
const (
	coldPool      = 12
	coldInstances = 32 // distinct instances generated per shape
	coldPaperSize = 67
)

// coldShapes generates the instances of the three shapes.
func coldShapes(seed int64) [3][]Op {
	var out [3][]Op
	for i := 0; i < coldInstances; i++ {
		fi, err := workload.GenerateFamily("paper", subSeed(seed, "cold", "paper", i), coldPaperSize)
		if err != nil {
			panic(err)
		}
		out[0] = append(out[0], Op{Kind: OpPut, Wait: true, Family: "paper", Lattice: fi.Lattice, Text: fi.Constraints})
		sup, err := suppress.Generate(suppress.GenSpec{Seed: subSeed(seed, "cold", "suppress", i), Rows: 20, Cols: 21})
		if err != nil {
			panic(err)
		}
		out[1] = append(out[1], problemOp("suppress", sup))
		dep, err := depinf.Generate(depinf.GenSpec{Seed: subSeed(seed, "cold", "depinf", i), Depth: 24, Width: 21, Fanout: 4, Extra: 128})
		if err != nil {
			panic(err)
		}
		out[2] = append(out[2], problemOp("depinf", dep))
	}
	return out
}

// problemOp is a create-and-solve op for a generated problem instance,
// carrying the policy texts POST /problems compiles it to.
func problemOp(family string, inst frontend.Instance) Op {
	b, err := frontend.Marshal(inst)
	if err != nil {
		panic(err)
	}
	op := Op{Kind: OpProblem, Wait: true, Family: family, Text: string(b)}
	op.policyLattice, op.policyText = compiledTexts(family, op.Text)
	return op
}

func buildColdCreate(p *Plan, steps, warm int) {
	p.Clients = 1
	m := model{}
	names := policyNames("cold", coldPool)
	shapes := coldShapes(p.Seed)
	rng := rngFor(p.Seed, "cold_create")
	var setup []Op
	for _, name := range names {
		fi := basePolicy(paperSize, p.Seed, "cold-setup", name)
		op := Op{Kind: OpPut, Name: name, Lattice: fi.Lattice, Text: fi.Constraints}
		m.putOp(&op)
		setup = append(setup, op)
	}
	p.Setup = [][]Op{setup}
	i := 0
	draw := func(n int) []Op {
		ops := make([]Op, n)
		for k := range ops {
			op := shapes[i%3][rng.Intn(coldInstances)]
			op.Name = names[i%coldPool]
			m.putOp(&op)
			ops[k] = op
			i++
		}
		return ops
	}
	p.Warmup = [][]Op{draw(warm)}
	p.Timed = [][]Op{draw(steps)}
	m.finalize(p)
}

// compiledTexts compiles a problem instance the way POST /problems does,
// for the catalog model.
func compiledTexts(family, instance string) (string, string) {
	fe, ok := frontend.Lookup(family)
	if !ok {
		panic("perfbench: no frontend " + family)
	}
	inst, err := fe.Parse([]byte(instance))
	if err != nil {
		panic(err)
	}
	c, err := fe.Compile(inst)
	if err != nil {
		panic(err)
	}
	return c.LatticeText, c.ConstraintText
}

func policyNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%03d", prefix, i)
	}
	return out
}

// split deals ops round-robin by policy into k client lists, keeping each
// policy's ops on one client and in order.
func split(ops []Op, k int) [][]Op {
	out := make([][]Op, k)
	owner := map[string]int{}
	for _, op := range ops {
		c, ok := owner[op.Name]
		if !ok {
			c = len(owner) % k
			owner[op.Name] = c
		}
		out[c] = append(out[c], op)
	}
	return out
}
