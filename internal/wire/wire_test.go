package wire

import (
	"testing"
	"testing/quick"

	"methodpart/internal/mir"
)

func roundTrip(t *testing.T, v mir.Value) mir.Value {
	t.Helper()
	e := NewEncoder()
	if err := e.EncodeValue(v); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(e.Bytes())
	out, err := d.DecodeValue()
	if err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", d.Remaining())
	}
	return out
}

func TestValueRoundTrip(t *testing.T) {
	obj := mir.NewObject("ImageData")
	obj.Fields["width"] = mir.Int(100)
	obj.Fields["buff"] = mir.Bytes{1, 2, 3}
	obj.Fields["name"] = mir.Str("frame")
	values := []mir.Value{
		mir.Null{},
		mir.Bool(true),
		mir.Bool(false),
		mir.Int(-123456789),
		mir.Float(3.14159),
		mir.Str(""),
		mir.Str("hello"),
		mir.Bytes{},
		mir.Bytes{0, 255, 7},
		mir.IntArray{1, -2, 3},
		mir.FloatArray{0.5, -0.25},
		obj,
	}
	for _, v := range values {
		got := roundTrip(t, v)
		if !mir.Equal(v, got) {
			t.Errorf("round trip of %v = %v", v, got)
		}
	}
}

func TestSharedReferences(t *testing.T) {
	// Two registers aliasing one object must decode to one shared object,
	// and the duplicate must cost only a back-reference on the wire.
	obj := mir.NewObject("Big")
	obj.Fields["buff"] = make(mir.Bytes, 1000)

	e := NewEncoder()
	if err := e.EncodeValue(obj); err != nil {
		t.Fatal(err)
	}
	firstLen := e.Len()
	if err := e.EncodeValue(obj); err != nil {
		t.Fatal(err)
	}
	dupCost := e.Len() - firstLen
	if dupCost != refSize {
		t.Fatalf("duplicate reference cost = %d, want %d", dupCost, refSize)
	}

	d := NewDecoder(e.Bytes())
	a, err := d.DecodeValue()
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.DecodeValue()
	if err != nil {
		t.Fatal(err)
	}
	if a.(*mir.Object) != b.(*mir.Object) {
		t.Error("shared object decoded to distinct objects")
	}
}

func TestSharedSliceReferences(t *testing.T) {
	buf := make(mir.Bytes, 64)
	o1 := mir.NewObject("A")
	o1.Fields["b"] = buf
	o2 := mir.NewObject("B")
	o2.Fields["b"] = buf
	e := NewEncoder()
	if err := e.EncodeValue(o1); err != nil {
		t.Fatal(err)
	}
	if err := e.EncodeValue(o2); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(e.Bytes())
	d1, _ := d.DecodeValue()
	d2, err := d.DecodeValue()
	if err != nil {
		t.Fatal(err)
	}
	b1 := d1.(*mir.Object).Fields["b"].(mir.Bytes)
	b2 := d2.(*mir.Object).Fields["b"].(mir.Bytes)
	b1[0] = 42
	if b2[0] != 42 {
		t.Error("shared byte slice decoded to distinct storage")
	}
}

func TestSizerMatchesEncoder(t *testing.T) {
	obj := mir.NewObject("AppComp")
	obj.Fields["s1"] = mir.Str("aa")
	obj.Fields["ia"] = make(mir.IntArray, 20)
	obj.Fields["fa"] = make(mir.FloatArray, 10)
	inner := mir.NewObject("AppBase")
	inner.Fields["c"] = mir.Int(1202)
	obj.Fields["ab1"] = inner
	obj.Fields["ab2"] = inner // shared reference

	values := []mir.Value{
		mir.Null{}, mir.Bool(true), mir.Int(5), mir.Float(2.5),
		mir.Str("xyz"), mir.Bytes{9, 9}, mir.IntArray{1}, obj, obj,
	}
	e := NewEncoder()
	s := NewSizer()
	var sized int64
	for _, v := range values {
		if err := e.EncodeValue(v); err != nil {
			t.Fatal(err)
		}
		sized += s.Size(v)
	}
	if int64(e.Len()) != sized {
		t.Fatalf("sizer = %d, encoder = %d", sized, e.Len())
	}
}

func TestSizerPropertyMatchesEncoder(t *testing.T) {
	f := func(ints []int64, bs []byte, s string, n int64) bool {
		obj := mir.NewObject("T")
		obj.Fields["a"] = mir.IntArray(ints)
		obj.Fields["b"] = mir.Bytes(bs)
		obj.Fields["c"] = mir.Str(s)
		obj.Fields["d"] = mir.Int(n)
		e := NewEncoder()
		if err := e.EncodeValue(obj); err != nil {
			return false
		}
		return int64(e.Len()) == SizeOf(obj)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// messageCorpus is the message round-trip corpus: one of each message kind
// that carries values or variable-length fields.
func messageCorpus() []any {
	ev := mir.NewObject("ImageData")
	ev.Fields["buff"] = mir.Bytes{1, 2, 3}
	return []any{
		&Raw{Handler: "push", Seq: 7, Event: ev},
		&Continuation{
			Handler:    "push",
			Seq:        9,
			PSEID:      2,
			ResumeNode: 5,
			ModWork:    1234,
			Vars: map[string]mir.Value{
				"r3": ev,
				"i":  mir.Int(3),
			},
		},
		&Feedback{
			Handler:     "push",
			PlanVersion: 12,
			Stats: []PSEStat{
				{ID: 1, Count: 10, Bytes: 100.5, ModWork: 3, DemodWork: 7, Prob: 0.5},
				{ID: 2, Count: 4, Bytes: 9, ModWork: 1, DemodWork: 2, Prob: 1},
			},
		},
		&Plan{Handler: "push", Version: 3, Split: []int32{1, 2}, Profile: []int32{0, 1, 2}},
		&Subscribe{Subscriber: "client-1", Handler: "push", Source: "func push(e) {\n return\n}", CostModel: "datasize", Natives: []string{"displayImage", "beep"}},
	}
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := messageCorpus()
	for _, m := range msgs {
		data, err := Marshal(m)
		if err != nil {
			t.Fatalf("marshal %T: %v", m, err)
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("unmarshal %T: %v", m, err)
		}
		switch orig := m.(type) {
		case *Raw:
			got := back.(*Raw)
			if got.Handler != orig.Handler || got.Seq != orig.Seq || !mir.Equal(got.Event, orig.Event) {
				t.Errorf("raw round trip: %+v", got)
			}
		case *Continuation:
			got := back.(*Continuation)
			if got.PSEID != orig.PSEID || got.ResumeNode != orig.ResumeNode || got.ModWork != orig.ModWork {
				t.Errorf("continuation header: %+v", got)
			}
			if len(got.Vars) != len(orig.Vars) {
				t.Errorf("vars = %v", got.Vars)
			}
			for k, v := range orig.Vars {
				if !mir.Equal(got.Vars[k], v) {
					t.Errorf("var %s = %v, want %v", k, got.Vars[k], v)
				}
			}
		case *Feedback:
			got := back.(*Feedback)
			if got.PlanVersion != orig.PlanVersion {
				t.Errorf("plan version = %d, want %d", got.PlanVersion, orig.PlanVersion)
			}
			if len(got.Stats) != len(orig.Stats) {
				t.Fatalf("stats = %+v", got.Stats)
			}
			for i := range orig.Stats {
				if got.Stats[i] != orig.Stats[i] {
					t.Errorf("stat %d = %+v, want %+v", i, got.Stats[i], orig.Stats[i])
				}
			}
		case *Plan:
			got := back.(*Plan)
			if got.Version != orig.Version || len(got.Split) != 2 || len(got.Profile) != 3 {
				t.Errorf("plan = %+v", got)
			}
		case *Subscribe:
			got := back.(*Subscribe)
			if got.Subscriber != orig.Subscriber || got.Handler != orig.Handler ||
				got.Source != orig.Source || got.CostModel != orig.CostModel ||
				len(got.Natives) != len(orig.Natives) {
				t.Errorf("subscribe = %+v", got)
			}
			for i := range orig.Natives {
				if got.Natives[i] != orig.Natives[i] {
					t.Errorf("native %d = %q", i, got.Natives[i])
				}
			}
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty message accepted")
	}
	if _, err := Unmarshal([]byte{99}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := Unmarshal([]byte{byte(MsgRaw), 1}); err == nil {
		t.Error("truncated message accepted")
	}
}

func TestDanglingReference(t *testing.T) {
	d := NewDecoder([]byte{tagRef, 9, 0, 0, 0})
	if _, err := d.DecodeValue(); err == nil {
		t.Error("dangling reference accepted")
	}
}
