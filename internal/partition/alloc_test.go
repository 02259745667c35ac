package partition_test

import (
	"testing"

	"methodpart/internal/partition"
	"methodpart/internal/sensor"
)

// crossCounter is a SenderProbe counting profiled crossings without
// allocating.
type crossCounter struct{ crossings int }

func (*crossCounter) Message(int64)               {}
func (p *crossCounter) Cross(int32, int64, int64) { p.crossings++ }
func (*crossCounter) SplitAt(int32, int64, int64) {}

// TestProfiledModulateAllocs guards in-place crossing sizing: profiling
// every PSE of the sensor handler must cost Modulator.Process at most a
// constant number of allocations more than profiling none, however many
// PSEs the run crosses.
func TestProfiledModulateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	f := newChain(t)
	// Split after the last stage so the modulator crosses every stage PSE.
	split := []int32{stagePSE(t, f.c, chainStages), filterPSE(t, f.c)}
	event := sensor.NewFrame(1, 256)
	measure := func(version uint64, profile []int32) (float64, int) {
		plan, err := partition.NewPlan(f.c.NumPSEs(), version, split, profile)
		if err != nil {
			t.Fatal(err)
		}
		f.mod.SetPlan(plan)
		probe := &crossCounter{}
		f.mod.Probe = probe
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := f.mod.Process(event); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, probe.crossings
	}
	off, _ := measure(1, nil)
	on, crossings := measure(2, partition.AllProfileIDs(f.c))
	if crossings < 51*3 {
		t.Fatalf("profiled run crossed %d PSEs over 51 events; want several per event", crossings)
	}
	t.Logf("allocs per event: profiling off %.1f, profiling all %.1f (%d crossings per event)", off, on, crossings/51)
	if on > off+1 {
		t.Errorf("profiling every PSE costs %.1f allocs per event, profiling none %.1f; want at most 1 more", on, off)
	}
}
