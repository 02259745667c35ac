package wire

import (
	"slices"
	"sync"

	"methodpart/internal/mir"
)

// Sizer computes the encoded size of values without serialising them — the
// paper's "customized object serialization algorithm [that] only performs
// size calculation" (§4.1). It is O(1) for primitive arrays and shares the
// Encoder's reference-deduplication semantics, so Size(vs...) equals the
// byte length an Encoder would produce for the same values.
type Sizer struct {
	objSeen map[*mir.Object]bool
	memSeen map[memKey]bool
}

// NewSizer creates a sizer. Like an Encoder, one Sizer spans one message;
// Reset makes it reusable for the next.
func NewSizer() *Sizer {
	return &Sizer{
		objSeen: make(map[*mir.Object]bool),
		memSeen: make(map[memKey]bool),
	}
}

// Reset forgets every reference seen so far while keeping the tables'
// capacity, so the sizer can price another message without reallocating.
func (s *Sizer) Reset() {
	clear(s.objSeen)
	clear(s.memSeen)
}

// sizerPool recycles Sizers that must outlive one stack frame, such as the
// one a profiling hook reuses across a run's PSE crossings, so those too
// allocate nothing in the steady state.
var sizerPool = sync.Pool{New: func() any { return NewSizer() }}

// GetSizer returns a reset Sizer from a shared pool. Hand it back with
// PutSizer once the message it prices is done.
func GetSizer() *Sizer { return sizerPool.Get().(*Sizer) }

// PutSizer resets s and returns it to the pool; s must not be used
// afterwards.
func PutSizer(s *Sizer) {
	s.Reset()
	sizerPool.Put(s)
}

// refSize is the encoded size of a back-reference (tag + u32).
const refSize = 5

// Size accumulates the encoded size of one value.
func (s *Sizer) Size(v mir.Value) int64 {
	if v == nil {
		return 1
	}
	switch x := v.(type) {
	case mir.Null:
		return 1
	case mir.Bool:
		return 2
	case mir.Int, mir.Float:
		return 9
	case mir.Str:
		return 1 + 4 + int64(len(x))
	case mir.Bytes:
		return s.sliceSize(tagBytes, slicePtr(x), len(x), 1)
	case mir.IntArray:
		return s.sliceSize(tagIntArray, slicePtr(x), len(x), 8)
	case mir.FloatArray:
		return s.sliceSize(tagFloatArray, slicePtr(x), len(x), 8)
	case *mir.Object:
		if x == nil {
			return 1
		}
		if s.objSeen[x] {
			return refSize
		}
		s.objSeen[x] = true
		total := int64(1 + 4 + len(x.Class) + 4)
		// Field names sort in a stack buffer; only objects wider than it
		// allocate.
		var buf [16]string
		names := buf[:0]
		for n := range x.Fields {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			total += 4 + int64(len(n))
			total += s.Size(x.Fields[n])
		}
		return total
	default:
		return 0
	}
}

func (s *Sizer) sliceSize(tag byte, ptr uintptr, n int, elem int64) int64 {
	if ptr != 0 {
		k := memKey{ptr: ptr, len: n, tag: tag}
		if s.memSeen[k] {
			return refSize
		}
		s.memSeen[k] = true
	}
	return 1 + 4 + int64(n)*elem
}

// Var returns the encoded size of one named continuation variable: its
// length-prefixed name plus its value, sharing references with everything
// this Sizer has priced since the last Reset.
func (s *Sizer) Var(name string, v mir.Value) int64 {
	return 4 + int64(len(name)) + s.Size(v)
}

// SizeOf computes the encoded size of a single value with a fresh Sizer.
// The Sizer and its tables live on the stack, so sizing a value with a
// handful of references allocates nothing.
func SizeOf(v mir.Value) int64 {
	return NewSizer().Size(v)
}

// SizeOfAll computes the encoded size of a value group sharing references
// (e.g. the live-variable snapshot of a continuation).
func SizeOfAll(vs []mir.Value) int64 {
	s := NewSizer()
	var total int64
	for _, v := range vs {
		total += s.Size(v)
	}
	return total
}
