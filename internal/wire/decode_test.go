package wire

import (
	"encoding/hex"
	"testing"

	"methodpart/internal/mir"
)

// marshalGolden is Marshal's output for messageCorpus, recorded before the
// decoder became a slice cursor. Any difference here is a wire-format
// change.
var marshalGolden = []string{
	"01040000007075736807000000000000000909000000496d616765446174610100000004000000627566660603000000010203",
	"02040000007075736809000000000000000200000005000000d2040000000000000200000001000000690303000000000000000200000072330909000000496d616765446174610100000004000000627566660603000000010203",
	"0304000000707573680c0000000000000002000000010000000a00000000000000000000000020594000000000000008400000000000001c40000000000000e03f00000000000000000200000004000000000000000000000000002240000000000000f03f0000000000000040000000000000f03f0000000000000000",
	"040400000070757368030000000000000002000000010000000200000003000000000000000100000002000000",
	"050000000008000000636c69656e742d310000000004000000707573681800000066756e632070757368286529207b0a2072657475726e0a7d080000006461746173697a65020000000c000000646973706c6179496d61676504000000626565700000000000000000000000000000000000000000",
}

// TestMarshalMatchesGolden pins the wire format: Marshal output on the
// round-trip corpus is byte-identical to the recorded frames, and every
// recorded frame decodes back and re-encodes to itself.
func TestMarshalMatchesGolden(t *testing.T) {
	msgs := messageCorpus()
	if len(msgs) != len(marshalGolden) {
		t.Fatalf("corpus has %d messages, golden %d", len(msgs), len(marshalGolden))
	}
	for i, m := range msgs {
		got, err := Marshal(m)
		if err != nil {
			t.Fatalf("marshal %T: %v", m, err)
		}
		if h := hex.EncodeToString(got); h != marshalGolden[i] {
			t.Errorf("%T marshals to\n%s\nwant\n%s", m, h, marshalGolden[i])
		}
		back, err := Unmarshal(got)
		if err != nil {
			t.Fatalf("unmarshal %T: %v", m, err)
		}
		again, err := Marshal(back)
		if err != nil {
			t.Fatalf("re-marshal %T: %v", m, err)
		}
		if h := hex.EncodeToString(again); h != marshalGolden[i] {
			t.Errorf("%T re-marshals to\n%s\nwant\n%s", m, h, marshalGolden[i])
		}
	}
}

// TestDecodedValuesDoNotAliasFrame: frames are pooled and recycled once
// decoded, so scribbling over the input after Unmarshal must leave every
// decoded string, byte slice and array intact.
func TestDecodedValuesDoNotAliasFrame(t *testing.T) {
	obj := mir.NewObject("Frame")
	obj.Fields["buff"] = mir.Bytes{1, 2, 3, 4}
	obj.Fields["ints"] = mir.IntArray{5, -6}
	obj.Fields["floats"] = mir.FloatArray{0.5, 7}
	obj.Fields["label"] = mir.Str("sensor")
	cont := &Continuation{Handler: "process", Seq: 4, PSEID: 3, ResumeNode: 8,
		Vars: map[string]mir.Value{"ev": obj, "name": mir.Str("x1"), "k": mir.Int(1 << 40)}}
	frame, err := Marshal(cont)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xAA
	}
	got := back.(*Continuation)
	if got.Handler != cont.Handler {
		t.Errorf("handler = %q after frame reuse", got.Handler)
	}
	for k, v := range cont.Vars {
		if !mir.Equal(got.Vars[k], v) {
			t.Errorf("var %s = %v after frame reuse, want %v", k, got.Vars[k], v)
		}
	}
}

// TestUnmarshalFloatArrayAllocs guards the slice-cursor decoder:
// unmarshalling a continuation costs the same small number of allocations
// whether its FloatArray holds 16 or 4096 elements — fixed-width reads
// allocate nothing and the array is decoded into one make.
func TestUnmarshalFloatArrayAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		arr := make(mir.FloatArray, n)
		for i := range arr {
			arr[i] = float64(i) / 3
		}
		frame, err := Marshal(&Continuation{Handler: "process", Seq: 1, PSEID: 2, ResumeNode: 6,
			Vars: map[string]mir.Value{"samples": arr}})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := Unmarshal(frame); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(4096)
	t.Logf("allocs per unmarshal: 16 elements %.1f, 4096 elements %.1f", small, large)
	if small != large {
		t.Errorf("allocs grow with array length: %.1f for 16 elements, %.1f for 4096", small, large)
	}
	// Continuation, handler name, var map (header and one group), var
	// name, array data, array header boxed into a Value, back-reference
	// table.
	if large > 8 {
		t.Errorf("unmarshal costs %.1f allocs, want at most 8", large)
	}
}
