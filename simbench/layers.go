package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"dclue/internal/core"
	"dclue/internal/db"
	"dclue/internal/netsim"
	"dclue/internal/platform"
	"dclue/internal/rng"
	"dclue/internal/sim"
	"dclue/internal/tcp"
)

// Layer drivers: timed calls into one layer's public API each, sized from
// the workload the layer's cost is attributed to. Each reports ns/op and
// allocs/op as the median of driverRounds rounds.

const driverRounds = 3

// driverInputs sizes the drivers from the workload's traced run.
type driverInputs struct {
	params      core.Params // the largest point, or the capacity search's base
	pendingMean float64     // calendar depth for sim.schedule
	stockRows   int         // B-tree size for db.btree_*
	hitRatio    float64     // buffer-cache hit ratio for db.bufcache_lookup
	ops         int         // base operation count per round
}

type layerResult struct {
	Name        string // per-layer metric name, e.g. "sim.schedule_ns"
	NsPerOp     float64
	AllocsPerOp float64
	Ops         int
}

// opTimer measures host time and heap allocations across a timed section.
type opTimer struct {
	t0      time.Time
	mallocs uint64
}

func startOps() opTimer {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return opTimer{t0: time.Now(), mallocs: ms.Mallocs}
}

func (t opTimer) stop(ops int) (ns, allocs float64) {
	d := time.Since(t.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(d.Nanoseconds()) / float64(ops), float64(ms.Mallocs-t.mallocs) / float64(ops)
}

type driver struct {
	name string
	ops  int
	run  func(ops int) (ns, allocs float64, err error)
}

// runDrivers runs every driver, recording one span per driver under parent.
func runDrivers(in driverInputs, rec *recorder, parent int) ([]layerResult, error) {
	p := in.params
	depth := int(in.pendingMean + 0.5)
	if depth < 1 {
		depth = 1
	}
	drivers := []driver{
		{"sim.schedule_ns", 20 * in.ops, func(n int) (float64, float64, error) { return driveSchedule(depth, n) }},
		{"sim.proc_switch_ns", in.ops, driveProcSwitch},
		{"netsim.packet_ns", in.ops, func(n int) (float64, float64, error) { return drivePacket(p, n) }},
		{"tcp.msg_ns", in.ops / 2, func(n int) (float64, float64, error) { return driveTCP(p, n) }},
		{"db.btree_put_ns", in.stockRows, driveBTreePut},
		{"db.btree_get_ns", 10 * in.ops, func(n int) (float64, float64, error) { return driveBTreeGet(in.stockRows, n) }},
		{"db.bufcache_lookup_ns", 10 * in.ops, func(n int) (float64, float64, error) { return driveBufCache(in.hitRatio, n) }},
		{"platform.process_ns", in.ops, func(n int) (float64, float64, error) { return driveCPU(p.Scale, n) }},
	}
	var out []layerResult
	for _, d := range drivers {
		sp := rec.begin("driver "+d.name, parent)
		type round struct{ ns, allocs float64 }
		var rounds []round
		for i := 0; i < driverRounds; i++ {
			ns, allocs, err := d.run(d.ops)
			if err != nil {
				rec.end(sp)
				return nil, fmt.Errorf("%s: %w", d.name, err)
			}
			rounds = append(rounds, round{ns, allocs})
		}
		rec.end(sp)
		sort.Slice(rounds, func(i, j int) bool { return rounds[i].ns < rounds[j].ns })
		med := rounds[len(rounds)/2]
		out = append(out, layerResult{Name: d.name, NsPerOp: med.ns, AllocsPerOp: med.allocs, Ops: d.ops})
	}
	return out, nil
}

// driveSchedule is the hold model: depth standing events, each of which
// re-arms itself at a random delay when it fires, so every operation is one
// At plus one fire against a calendar of the workload's mean depth.
func driveSchedule(depth, ops int) (float64, float64, error) {
	s := sim.New()
	r := rng.Derive(1, "simbench/schedule")
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = sim.Time(1 + r.Intn(1_000_000))
	}
	armed := 0
	var fn func()
	fn = func() {
		if armed < ops {
			s.After(delays[armed&4095], fn)
			armed++
		}
	}
	t := startOps()
	for i := 0; i < depth && armed < ops; i++ {
		s.After(delays[armed&4095], fn)
		armed++
	}
	s.RunAll()
	ns, allocs := t.stop(ops)
	if got := s.EventCount(); got != uint64(ops) {
		return 0, 0, fmt.Errorf("fired %d events, want %d", got, ops)
	}
	return ns, allocs, nil
}

// driveProcSwitch times one process Sleep round trip: park, calendar event,
// wake.
func driveProcSwitch(ops int) (float64, float64, error) {
	s := sim.New()
	done := 0
	s.Spawn("switch", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			p.Sleep(1)
			done++
		}
	})
	t := startOps()
	s.RunAll()
	ns, allocs := t.stop(ops)
	if done != ops {
		return 0, 0, fmt.Errorf("%d sleeps completed, want %d", done, ops)
	}
	return ns, allocs, nil
}

// countingEndpoint counts delivered packets.
type countingEndpoint struct{ n int }

func (e *countingEndpoint) Deliver(*netsim.Packet) { e.n++ }

// twoHosts joins NICs 0 and 1 through one router with the workload's node
// link and router settings.
func twoHosts(p core.Params) (*sim.Sim, *netsim.Network) {
	s := sim.New()
	n := netsim.New(s)
	r := netsim.NewRouter(n, "r", p.RouterFwdRate, p.RouterFwdLat)
	for _, a := range []netsim.Addr{0, 1} {
		n.NIC(a).Attach(r, p.NodeLinkBps, p.NodePropDelay)
	}
	return s, n
}

// drivePacket sends MTU packets NIC→link→router→link→NIC through
// Network.Send in bursts of eight, draining the calendar after each burst.
func drivePacket(p core.Params, ops int) (float64, float64, error) {
	s, n := twoHosts(p)
	ep := &countingEndpoint{}
	n.NIC(1).SetEndpoint(ep)
	const burst = 8
	t := startOps()
	for sent := 0; sent < ops; {
		for i := 0; i < burst && sent < ops; i++ {
			pkt := n.AllocPacket()
			pkt.Src, pkt.Dst, pkt.Size = 0, 1, 1500
			n.Send(pkt)
			sent++
		}
		s.RunAll()
	}
	ns, allocs := t.stop(ops)
	if ep.n != ops || n.Drops != 0 {
		return 0, 0, fmt.Errorf("%d of %d packets delivered, %d dropped", ep.n, ops, n.Drops)
	}
	return ns, allocs, nil
}

// driveTCP times Conn.Enqueue of a control-message-sized payload through to
// in-order delivery and the ACK that clears it, on a two-stack Domain.
func driveTCP(p core.Params, ops int) (float64, float64, error) {
	s, n := twoHosts(p)
	dom := tcp.NewDomain(n, tcp.DefaultConfig(p.Scale))
	sa := dom.NewStack(0, tcp.InstantProcessor{}, tcp.CostModel{})
	sb := dom.NewStack(1, tcp.InstantProcessor{}, tcp.CostModel{})
	got := 0
	sb.Listen(99, func(c *tcp.Conn) {
		c.SetOnMessage(func(tcp.Message) { got++ })
	})
	var conn *tcp.Conn
	s.Spawn("dial", func(pp *sim.Proc) { conn = tcp.Dial(pp, sa, 1, 99, tcp.DialOptions{}) })
	s.RunAll()
	if conn == nil {
		return 0, 0, fmt.Errorf("dial failed")
	}
	t := startOps()
	for i := 0; i < ops; i++ {
		conn.Enqueue(nil, 256)
		s.RunAll()
	}
	ns, allocs := t.stop(ops)
	if got != ops {
		return 0, 0, fmt.Errorf("%d of %d messages delivered", got, ops)
	}
	return ns, allocs, nil
}

// btreeKeys is a deterministic permutation of [0, rows).
func btreeKeys(rows int) []int64 {
	r := rng.Derive(1, "simbench/btree")
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(i)
	}
	for i := len(keys) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

// driveBTreePut inserts the stock table's row count in random key order,
// growing the tree to the workload's stock-index size.
func driveBTreePut(rows int) (float64, float64, error) {
	keys := btreeKeys(rows)
	tr := db.NewBTree(64) // the degree db.Catalog gives every table index
	t := startOps()
	for _, k := range keys {
		tr.Put(k, k)
	}
	ns, allocs := t.stop(rows)
	if tr.Len() != rows {
		return 0, 0, fmt.Errorf("tree holds %d keys, want %d", tr.Len(), rows)
	}
	return ns, allocs, nil
}

// driveBTreeGet looks up random keys in a tree sized like the stock index.
func driveBTreeGet(rows, ops int) (float64, float64, error) {
	keys := btreeKeys(rows)
	tr := db.NewBTree(64)
	for _, k := range keys {
		tr.Put(k, k)
	}
	miss := 0
	t := startOps()
	for i := 0; i < ops; i++ {
		k := keys[i%rows]
		if v, ok := tr.Get(k); !ok || v != k {
			miss++
		}
	}
	ns, allocs := t.stop(ops)
	if miss != 0 {
		return 0, 0, fmt.Errorf("%d lookups missed", miss)
	}
	return ns, allocs, nil
}

// driveBufCache runs BufferCache.Lookup over a full cache at the workload's
// hit ratio, unpinning each hit. Misses do not fetch, so the resident set
// stays fixed.
func driveBufCache(hitRatio float64, ops int) (float64, float64, error) {
	const frames = 8192
	bc := db.NewBufferCache(frames, nil)
	for i := 0; i < frames; i++ {
		bc.InsertWarm(db.BlockID{Block: int64(i)})
	}
	r := rng.Derive(1, "simbench/bufcache")
	seq := make([]db.BlockID, 1<<16)
	for i := range seq {
		b := int64(r.Intn(frames))
		if !r.Bool(hitRatio) {
			b += frames
		}
		seq[i] = db.BlockID{Block: b}
	}
	t := startOps()
	for i := 0; i < ops; i++ {
		blk := seq[i&(len(seq)-1)]
		if bc.Lookup(blk) != nil {
			bc.Unpin(blk)
		}
	}
	ns, allocs := t.stop(ops)
	if bc.Hits+bc.Misses != uint64(ops) {
		return 0, 0, fmt.Errorf("%d lookups counted, want %d", bc.Hits+bc.Misses, ops)
	}
	return ns, allocs, nil
}

// driveCPU submits one interrupt-priority task at a time to a node's
// platform.CPU and runs the calendar until it completes.
func driveCPU(scale float64, ops int) (float64, float64, error) {
	const pathLen = 20000 // instructions, a protocol-processing task
	s := sim.New()
	cpu := platform.NewCPU(s, platform.DefaultConfig(scale))
	done := 0
	fn := func() {
		done++
		s.Stop()
	}
	t := startOps()
	for i := 0; i < ops; i++ {
		cpu.Process(pathLen, fn)
		s.RunAll()
	}
	ns, allocs := t.stop(ops)
	cpu.Stop()
	s.Shutdown()
	if done != ops {
		return 0, 0, fmt.Errorf("%d of %d tasks completed", done, ops)
	}
	return ns, allocs, nil
}
