// Package wire implements the binary on-the-wire representation of MIR
// values, continuation messages and the control messages (profiling feedback
// and partitioning plans) exchanged between modulator and demodulator sides.
//
// Object and array values are encoded with reference sharing: the first
// occurrence carries the payload, later occurrences a 5-byte back-reference.
// This matches the paper's data-size cost definition (§4.1): "the total
// runtime size of the unique objects reachable ... plus the total number of
// duplicated references to those unique objects".
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"methodpart/internal/mir"
)

// Value tag bytes.
const (
	tagNull byte = iota + 1
	tagBool
	tagInt
	tagFloat
	tagStr
	tagBytes
	tagIntArray
	tagFloatArray
	tagObject
	tagRef
)

// Encoder serialises MIR values with reference deduplication. One Encoder
// encodes one message; references are shared across all values written
// through it. Reset makes an Encoder reusable across messages (the pooled
// Marshal/AppendMarshal path relies on this), retaining the buffer and map
// capacity so steady-state encoding allocates nothing.
type Encoder struct {
	w       *bytes.Buffer
	objSeen map[*mir.Object]uint32
	memSeen map[memKey]uint32
	nextRef uint32
	// names is a scratch slice for sorting field/var names with stack
	// discipline: each (possibly nested) use appends its names after the
	// ones already in flight and truncates back when done, so recursion
	// reuses one allocation.
	names    []string
	scratch8 [8]byte
}

type memKey struct {
	ptr uintptr
	len int
	tag byte
}

// NewEncoder creates an encoder writing to an internal buffer.
func NewEncoder() *Encoder {
	return &Encoder{
		w:       &bytes.Buffer{},
		objSeen: make(map[*mir.Object]uint32),
		memSeen: make(map[memKey]uint32),
	}
}

// Reset clears the encoded output and the reference tables while keeping
// their capacity, so the encoder can serialise another message without
// reallocating.
func (e *Encoder) Reset() {
	e.w.Reset()
	clear(e.objSeen)
	clear(e.memSeen)
	e.nextRef = 0
	e.names = e.names[:0]
}

// Bytes returns the encoded output.
func (e *Encoder) Bytes() []byte { return e.w.Bytes() }

// Len returns the number of bytes written so far.
func (e *Encoder) Len() int { return e.w.Len() }

func (e *Encoder) writeU32(v uint32) {
	binary.LittleEndian.PutUint32(e.scratch8[:4], v)
	e.w.Write(e.scratch8[:4])
}

func (e *Encoder) writeU64(v uint64) {
	binary.LittleEndian.PutUint64(e.scratch8[:8], v)
	e.w.Write(e.scratch8[:8])
}

func (e *Encoder) writeString(s string) {
	e.writeU32(uint32(len(s)))
	e.w.WriteString(s)
}

// EncodeValue appends one value.
func (e *Encoder) EncodeValue(v mir.Value) error {
	if v == nil {
		e.w.WriteByte(tagNull)
		return nil
	}
	switch x := v.(type) {
	case mir.Null:
		e.w.WriteByte(tagNull)
	case mir.Bool:
		e.w.WriteByte(tagBool)
		if x {
			e.w.WriteByte(1)
		} else {
			e.w.WriteByte(0)
		}
	case mir.Int:
		e.w.WriteByte(tagInt)
		e.writeU64(uint64(x))
	case mir.Float:
		e.w.WriteByte(tagFloat)
		e.writeU64(math.Float64bits(float64(x)))
	case mir.Str:
		e.w.WriteByte(tagStr)
		e.writeString(string(x))
	case mir.Bytes:
		if e.writeSliceRef(tagBytes, slicePtr(x), len(x)) {
			return nil
		}
		e.w.WriteByte(tagBytes)
		e.writeU32(uint32(len(x)))
		e.w.Write(x)
		e.claimRef(tagBytes, slicePtr(x), len(x))
	case mir.IntArray:
		if e.writeSliceRef(tagIntArray, slicePtr(x), len(x)) {
			return nil
		}
		e.w.WriteByte(tagIntArray)
		e.writeU32(uint32(len(x)))
		for _, n := range x {
			e.writeU64(uint64(n))
		}
		e.claimRef(tagIntArray, slicePtr(x), len(x))
	case mir.FloatArray:
		if e.writeSliceRef(tagFloatArray, slicePtr(x), len(x)) {
			return nil
		}
		e.w.WriteByte(tagFloatArray)
		e.writeU32(uint32(len(x)))
		for _, f := range x {
			e.writeU64(math.Float64bits(f))
		}
		e.claimRef(tagFloatArray, slicePtr(x), len(x))
	case *mir.Object:
		if x == nil {
			e.w.WriteByte(tagNull)
			return nil
		}
		if ref, ok := e.objSeen[x]; ok {
			e.w.WriteByte(tagRef)
			e.writeU32(ref)
			return nil
		}
		e.w.WriteByte(tagObject)
		e.objSeen[x] = e.nextRef
		e.nextRef++
		e.writeString(x.Class)
		base := len(e.names)
		for n := range x.Fields {
			e.names = append(e.names, n)
		}
		names := e.names[base:]
		slices.Sort(names)
		e.writeU32(uint32(len(names)))
		for _, n := range names {
			e.writeString(n)
			if err := e.EncodeValue(x.Fields[n]); err != nil {
				e.names = e.names[:base]
				return err
			}
		}
		e.names = e.names[:base]
	default:
		return fmt.Errorf("wire: cannot encode %T", v)
	}
	return nil
}

// slicePtr identifies a slice's backing array for reference deduplication.
// It avoids reflect.ValueOf, whose interface boxing would allocate on every
// encoded slice; the resulting uintptr is only ever compared as a map key,
// never converted back to a pointer.
func slicePtr[T any](x []T) uintptr {
	if len(x) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&x[0]))
}

// writeSliceRef emits a back-reference if the slice was already encoded.
func (e *Encoder) writeSliceRef(tag byte, ptr uintptr, n int) bool {
	if ptr == 0 {
		return false
	}
	if ref, ok := e.memSeen[memKey{ptr: ptr, len: n, tag: tag}]; ok {
		e.w.WriteByte(tagRef)
		e.writeU32(ref)
		return true
	}
	return false
}

func (e *Encoder) claimRef(tag byte, ptr uintptr, n int) {
	if ptr != 0 {
		e.memSeen[memKey{ptr: ptr, len: n, tag: tag}] = e.nextRef
	}
	e.nextRef++
}

// Decoder deserialises values produced by an Encoder. It walks the input
// with a slice cursor: fixed-width fields are read in place without
// allocating, and every variable-length field is clamped against the bytes
// actually left before anything is allocated for it. Decoded values never
// alias the input — strings, byte slices and arrays are copied out — so the
// caller may recycle the frame as soon as decoding returns.
type Decoder struct {
	data []byte
	off  int
	refs []mir.Value
}

// NewDecoder creates a decoder over the given bytes.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{data: data}
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

// take advances the cursor over n bytes and returns them, aliasing the
// input. Like io.ReadFull it fails with io.EOF when nothing remains and
// io.ErrUnexpectedEOF when only part of n does.
func (d *Decoder) take(n int) ([]byte, error) {
	if n > d.Remaining() {
		if d.Remaining() == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	b := d.data[d.off : d.off+n : d.off+n]
	d.off += n
	return b, nil
}

func (d *Decoder) readByte() (byte, error) {
	if d.off >= len(d.data) {
		return 0, io.EOF
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

func (d *Decoder) readU32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *Decoder) readU64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// readString reads a length-prefixed string in one allocation (none for
// the empty string); the conversion copies, so the result never aliases
// the input.
func (d *Decoder) readString() (string, error) {
	n, err := d.readU32()
	if err != nil {
		return "", err
	}
	if int64(n) > int64(d.Remaining()) {
		return "", fmt.Errorf("wire: string length %d exceeds remaining %d", n, d.Remaining())
	}
	b, _ := d.take(int(n))
	return string(b), nil
}

// readLen reads an element count and clamps it against the remaining input
// at elem bytes per element. int64 arithmetic so a 2^32-scale prefix cannot
// overflow the comparison on 32-bit platforms and slip past the clamp.
func (d *Decoder) readLen(what string, elem int64) (int, error) {
	n, err := d.readU32()
	if err != nil {
		return 0, err
	}
	if int64(n)*elem > int64(d.Remaining()) {
		return 0, fmt.Errorf("wire: %s length %d exceeds remaining %d", what, n, d.Remaining())
	}
	return int(n), nil
}

// claim records a decoded slice value as the next back-reference target and
// returns it, boxing it into an mir.Value once for both uses.
func (d *Decoder) claim(v mir.Value) mir.Value {
	d.refs = append(d.refs, v)
	return v
}

// DecodeValue reads one value.
func (d *Decoder) DecodeValue() (mir.Value, error) {
	tag, err := d.readByte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNull:
		return mir.Null{}, nil
	case tagBool:
		b, err := d.readByte()
		if err != nil {
			return nil, err
		}
		return mir.Bool(b != 0), nil
	case tagInt:
		u, err := d.readU64()
		if err != nil {
			return nil, err
		}
		return mir.Int(int64(u)), nil
	case tagFloat:
		u, err := d.readU64()
		if err != nil {
			return nil, err
		}
		return mir.Float(math.Float64frombits(u)), nil
	case tagStr:
		s, err := d.readString()
		if err != nil {
			return nil, err
		}
		return mir.Str(s), nil
	case tagBytes:
		n, err := d.readLen("bytes", 1)
		if err != nil {
			return nil, err
		}
		b, _ := d.take(n)
		buf := make(mir.Bytes, n)
		copy(buf, b)
		return d.claim(buf), nil
	case tagIntArray:
		n, err := d.readLen("intarray", 8)
		if err != nil {
			return nil, err
		}
		b, _ := d.take(n * 8)
		arr := make(mir.IntArray, n)
		for i := range arr {
			arr[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
		}
		return d.claim(arr), nil
	case tagFloatArray:
		n, err := d.readLen("floatarray", 8)
		if err != nil {
			return nil, err
		}
		b, _ := d.take(n * 8)
		arr := make(mir.FloatArray, n)
		for i := range arr {
			arr[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
		return d.claim(arr), nil
	case tagObject:
		// Reserve the ref slot before decoding fields so nested
		// back-references resolve in encoder order.
		obj := mir.NewObject("")
		d.refs = append(d.refs, obj)
		class, err := d.readString()
		if err != nil {
			return nil, err
		}
		obj.Class = class
		nf, err := d.readU32()
		if err != nil {
			return nil, err
		}
		// Each field costs at least a 4-byte name length plus a 1-byte
		// value tag; a count the remaining input cannot possibly satisfy is
		// corrupt, so fail before growing the field map toward it.
		if int64(nf) > int64(d.Remaining())/5 {
			return nil, fmt.Errorf("wire: field count %d exceeds remaining payload", nf)
		}
		for i := uint32(0); i < nf; i++ {
			name, err := d.readString()
			if err != nil {
				return nil, err
			}
			fv, err := d.DecodeValue()
			if err != nil {
				return nil, err
			}
			obj.Fields[name] = fv
		}
		return obj, nil
	case tagRef:
		ref, err := d.readU32()
		if err != nil {
			return nil, err
		}
		if int(ref) >= len(d.refs) {
			return nil, fmt.Errorf("wire: dangling reference %d (have %d)", ref, len(d.refs))
		}
		return d.refs[ref], nil
	default:
		return nil, fmt.Errorf("wire: unknown value tag %d", tag)
	}
}
