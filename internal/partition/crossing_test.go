package partition

import (
	"fmt"
	"testing"

	"methodpart/internal/analysis"
	"methodpart/internal/costmodel"
	"methodpart/internal/mir"
	"methodpart/internal/mir/asm"
	"methodpart/internal/mir/interp"
	"methodpart/internal/sensor"
	"methodpart/internal/testprog"
)

// crossingCase is one handler of the testprog corpus with an event to run.
type crossingCase struct {
	name    string
	prog    *mir.Program
	classes *mir.ClassTable
	reg     func() *interp.Registry
	event   mir.Value
}

func crossingCorpus(t *testing.T) []crossingCase {
	t.Helper()
	push := testprog.PushUnit()
	pushProg, _ := push.Program("push")
	pushClasses, err := push.ClassTable()
	if err != nil {
		t.Fatal(err)
	}
	loop := asm.MustParse(testprog.LoopSource)
	loopProg, _ := loop.Program("sum")
	const stages = 8
	chain := sensor.HandlerUnit(stages)
	chainProg, _ := chain.Program(sensor.HandlerName)
	chainClasses, err := chain.ClassTable()
	if err != nil {
		t.Fatal(err)
	}
	arr := make(mir.IntArray, 40)
	for i := range arr {
		arr[i] = int64(i * 7)
	}
	cases := []crossingCase{
		{"push-large", pushProg, pushClasses, func() *interp.Registry { r, _ := testprog.PushBuiltins(); return r }, testprog.NewImageData(128, 96)},
		{"push-small", pushProg, pushClasses, func() *interp.Registry { r, _ := testprog.PushBuiltins(); return r }, testprog.NewImageData(16, 16)},
		{"loop", loopProg, nil, func() *interp.Registry { r, _ := testprog.LoopBuiltins(); return r }, arr},
		{"sensor", chainProg, chainClasses, func() *interp.Registry { r, _ := sensor.Builtins(stages); return r }, sensor.NewFrame(3, 64)},
	}
	for seed := int64(1); seed <= 12; seed++ {
		cases = append(cases, crossingCase{
			fmt.Sprintf("random%d", seed), testprog.RandomProgram(seed), nil,
			func() *interp.Registry { r, _ := testprog.SinkRegistry(); return r }, mir.Int(seed*17 + 3),
		})
	}
	return cases
}

// TestCrossingSizeMatchesSnapshot is the differential test for in-place
// crossing sizing: at every PSE crossing of the testprog corpus, on both
// engines, the size priced straight from the machine's registers equals the
// size of the snapshot the crossing used to build.
func TestCrossingSizeMatchesSnapshot(t *testing.T) {
	for _, tc := range crossingCorpus(t) {
		for _, engine := range []Engine{EngineStepping, EngineCompiled} {
			t.Run(tc.name+"/"+engine.String(), func(t *testing.T) {
				c, err := Compile(tc.prog, tc.classes, tc.reg(), costmodel.NewDataSize())
				if err != nil {
					t.Fatal(err)
				}
				c.Engine = engine
				machine, err := c.newMachine(interp.NewEnv(tc.classes, tc.reg()), []mir.Value{tc.event})
				if err != nil {
					t.Fatal(err)
				}
				defer machine.Release()
				var cross crossSizer
				defer cross.release()
				crossings := 0
				machine.SetHook(func(e interp.Edge) bool {
					id, ok := c.PSEByEdge(analysis.Edge{From: e.From, To: e.To})
					if !ok {
						return false
					}
					pse, _ := c.PSE(id)
					got := cross.size(machine, pse.Vars)
					want := snapshotSize(pse.Vars, machine.Snapshot(pse.Vars))
					if got != want {
						t.Errorf("PSE %d (vars %v): in-place size %d, snapshot size %d", id, pse.Vars, got, want)
					}
					crossings++
					return false
				})
				if _, err := machine.Run(); err != nil {
					t.Fatal(err)
				}
				if crossings == 0 {
					t.Fatal("no PSE crossed")
				}
			})
		}
	}
}
