package main

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"slices"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/mir"
	"methodpart/internal/mir/asm"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/sensor"
	"methodpart/internal/wire"
)

// Workload shapes. README.md gives the reason for each choice.
const (
	// poolPerKind is how many distinct events of each kind the pool holds.
	// It must exceed matchWindow so that a digest identifies its event
	// within the window the receivers search.
	poolPerKind = 64
	// imagePhase is how many consecutive frames of one size the mixed
	// image stream sends before switching size.
	imagePhase = 500
	// imageDisplay is the display edge of the image handler.
	imageDisplay = 64
	// sensorSamples is the sample count of one sensor frame.
	sensorSamples = 256
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"image-mixed-tcp", "sensor-chain-mem", "small-reliable-fanout-mem"}

// workload is one benchmark input: a handler, the channel shape that
// carries it, and a pool of events generated from the seed before any
// timing starts.
type workload struct {
	name     string
	mem      bool    // in-process mem transport; false is TCP loopback
	subs     int     // identical subscribers on the channel
	rate     float64 // open-loop events per second
	reliable bool    // subscribers request at-least-once delivery
	source   string
	handler  string
	model    string
	natives  []string
	env      costmodel.Environment
	// builtins returns a fresh application registry and a function that
	// empties its native sink, so long runs do not keep every output.
	builtins func() (*interp.Registry, func())
	// pool holds the events. Event i draws from kind (i/phase)%len(kinds)
	// and cycles through that kind's pool indices.
	pool  []mir.Value
	kinds [][]int
	phase int
	// ref is the digest of the unsplit reference output of each pool
	// entry.
	ref []uint64
}

// newWorkload builds the named workload with its event pool and reference
// outputs.
func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	switch name {
	case "image-mixed-tcp":
		w = imageWorkload(name, 1, 2500)
		w.phase = imagePhase
		w.kinds = [][]int{w.addFrames(rng, 256), w.addFrames(rng, 48)}
	case "sensor-chain-mem":
		w = &workload{
			name: name, mem: true, subs: 1, rate: 4000,
			source:  sensor.HandlerSource(sensor.DefaultStages),
			handler: sensor.HandlerName,
			model:   costmodel.ExecTimeName,
			natives: []string{"deliver"},
			// The §5.2 cluster: equal producer and consumer speed on a
			// Fast-Ethernet-class link.
			env: costmodel.Environment{SenderSpeed: 900, ReceiverSpeed: 900, Bandwidth: 12500, LatencyMS: 0.5},
			builtins: func() (*interp.Registry, func()) {
				reg, sink := sensor.Builtins(sensor.DefaultStages)
				return reg, func() { clear(sink.Outputs); sink.Outputs = sink.Outputs[:0] }
			},
		}
		ids := make([]int, poolPerKind)
		for i := range ids {
			ids[i] = len(w.pool)
			w.pool = append(w.pool, sensor.NewFrame(rng.Int63n(1<<30), sensorSamples))
		}
		w.kinds = [][]int{ids}
	case "small-reliable-fanout-mem":
		w = imageWorkload(name, 2, 8000)
		w.mem, w.reliable = true, true
		w.kinds = [][]int{w.addFrames(rng, 16)}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err := w.reference(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return w, nil
}

// imageWorkload is the §5.1 image handler under the data-size model.
func imageWorkload(name string, subs int, rate float64) *workload {
	return &workload{
		name: name, subs: subs, rate: rate,
		source:  imaging.HandlerSource(imageDisplay),
		handler: imaging.HandlerName,
		model:   costmodel.DataSizeName,
		natives: []string{"displayImage"},
		env:     costmodel.DefaultEnvironment(),
		builtins: func() (*interp.Registry, func()) {
			reg, disp := imaging.Builtins()
			return reg, func() { clear(disp.Frames); disp.Frames = disp.Frames[:0] }
		},
	}
}

// addFrames appends poolPerKind square frames of the given edge to the
// pool and returns their indices.
func (w *workload) addFrames(rng *rand.Rand, edge int) []int {
	ids := make([]int, poolPerKind)
	for i := range ids {
		ids[i] = len(w.pool)
		w.pool = append(w.pool, imaging.NewFrame(edge, edge, rng.Int63()))
	}
	return ids
}

func (w *workload) transportName() string {
	if w.mem {
		return "mem (in-process)"
	}
	return "tcp (loopback)"
}

// closedLoopOK reports whether the run may saturate the channel. A
// saturated AtLeastOnce channel at times deadlocks until a 10 s write
// timeout retires a subscription (README.md, "What the benchmark
// showed"), so how many deliveries a run loses depends on scheduling. A
// reliable workload is therefore measured in the open loop only.
func (w *workload) closedLoopOK() bool { return !w.reliable }

// kindOf returns the event kind of event i.
func (w *workload) kindOf(i int) int {
	if len(w.kinds) == 1 {
		return 0
	}
	return (i / w.phase) % len(w.kinds)
}

// poolIndex returns the pool entry event i sends.
func (w *workload) poolIndex(i int) int {
	ids := w.kinds[w.kindOf(i)]
	return ids[i%len(ids)]
}

// nativeOracle marks the handler's declared natives, as a subscription
// does.
type nativeOracle map[string]bool

func (n nativeOracle) IsNative(fn string) bool { return n[fn] }

// parse assembles the handler source into the inputs of partition.Compile.
func (w *workload) parse() (*mir.Program, *mir.ClassTable, nativeOracle, error) {
	unit, err := asm.Parse(w.source)
	if err != nil {
		return nil, nil, nil, err
	}
	prog, ok := unit.Program(w.handler)
	if !ok {
		return nil, nil, nil, fmt.Errorf("handler %q not in source", w.handler)
	}
	classes, err := unit.ClassTable()
	if err != nil {
		return nil, nil, nil, err
	}
	oracle := make(nativeOracle, len(w.natives))
	for _, n := range w.natives {
		oracle[n] = true
	}
	return prog, classes, oracle, nil
}

// compile compiles the handler as both channel ends do.
func (w *workload) compile() (*partition.Compiled, error) {
	prog, classes, oracle, err := w.parse()
	if err != nil {
		return nil, err
	}
	model, err := costmodel.ByName(w.model)
	if err != nil {
		return nil, err
	}
	return partition.Compile(prog, classes, oracle, model)
}

// reference runs the unsplit handler on every pool entry and records the
// digest of what reached the native sink. Receivers identify each handled
// event by this digest, so entries of one kind must differ.
func (w *workload) reference() error {
	c, err := w.compile()
	if err != nil {
		return err
	}
	reg, reset := w.builtins()
	var got uint64
	var seen bool
	env := interp.NewEnv(c.Classes, wrapBuiltins(reg, nil, nil, func(v mir.Value) {
		got, seen = digest(v), true
		reset()
	}))
	demod := partition.NewDemodulator(c, env)
	w.ref = make([]uint64, len(w.pool))
	for i, ev := range w.pool {
		seen = false
		if _, err := demod.ProcessRaw(&wire.Raw{Handler: w.handler, Event: ev}); err != nil {
			return fmt.Errorf("reference run of pool entry %d: %w", i, err)
		}
		if !seen {
			return fmt.Errorf("reference run of pool entry %d reached no native sink", i)
		}
		w.ref[i] = got
	}
	for _, ids := range w.kinds {
		seenRef := make(map[uint64]bool, len(ids))
		for _, id := range ids {
			if seenRef[w.ref[id]] {
				return fmt.Errorf("pool entries of one kind share an output digest")
			}
			seenRef[w.ref[id]] = true
		}
	}
	return nil
}

// wrapBuiltins copies reg. With tr set, each call is a "handler.<name>"
// span whose parent is parent() (nil parent func: no parent). After every
// native builtin returns, sink receives its argument, the handler output.
func wrapBuiltins(reg *interp.Registry, tr *tracer, parent func() *open, sink func(mir.Value)) *interp.Registry {
	out := interp.NewRegistry()
	for _, name := range reg.Names() {
		b, _ := reg.Lookup(name)
		orig := *b
		spanName := "handler." + name
		wrapped := orig
		wrapped.Fn = func(env *interp.Env, args []mir.Value) (mir.Value, error) {
			var o *open
			if tr != nil {
				var p *open
				if parent != nil {
					p = parent()
				}
				o = tr.begin(spanName, -1, p)
			}
			v, err := orig.Fn(env, args)
			if o != nil {
				tr.end(o)
			}
			if orig.Native && sink != nil && err == nil && len(args) == 1 {
				sink(args[0])
			}
			return v, err
		}
		out.MustRegister(wrapped)
	}
	return out
}

// digestSeed keys every output digest of one process.
var digestSeed = maphash.MakeSeed()

// digest hashes a handler output by value.
func digest(v mir.Value) uint64 {
	var h maphash.Hash
	h.SetSeed(digestSeed)
	hashValue(&h, v)
	return h.Sum64()
}

func hashValue(h *maphash.Hash, v mir.Value) {
	var b [8]byte
	switch x := v.(type) {
	case *mir.Object:
		h.WriteString(x.Class)
		var buf [8]string
		names := buf[:0]
		for n := range x.Fields {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			h.WriteString(n)
			hashValue(h, x.Fields[n])
		}
	case mir.Bytes:
		h.Write(x)
	case mir.FloatArray:
		for _, f := range x {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
	case mir.Int:
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	default:
		fmt.Fprintf(h, "%T:%v", v, v)
	}
}
