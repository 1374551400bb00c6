package serde

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.PutU8(0xAB)
	e.PutBool(true)
	e.PutBool(false)
	e.PutU16(0xBEEF)
	e.PutU32(0xDEADBEEF)
	e.PutU64(0x0123456789ABCDEF)
	e.PutUvarint(1 << 60)
	e.PutVarint(-12345)
	e.PutInt(-7)
	e.PutF64(math.Pi)
	e.PutF32(2.5)
	e.PutBytes([]byte{1, 2, 3})
	e.PutString("hello λ")

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Errorf("Bool mismatch")
	}
	if got := d.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.Uvarint(); got != 1<<60 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Varint(); got != -12345 {
		t.Errorf("Varint = %d", got)
	}
	if got := d.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.F32(); got != 2.5 {
		t.Errorf("F32 = %v", got)
	}
	if got := d.Bytes(); string(got) != "\x01\x02\x03" {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.String(); got != "hello λ" {
		t.Errorf("String = %q", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{0x01})
	_ = d.U64()
	if d.Err() != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", d.Err())
	}
	// sticky: later reads keep failing and return zero values
	if v := d.U8(); v != 0 {
		t.Errorf("after error U8 = %d, want 0", v)
	}
}

func TestCorruptVarint(t *testing.T) {
	// 10 continuation bytes is an invalid varint
	b := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}
	d := NewDecoder(b)
	_ = d.Uvarint()
	if d.Err() == nil {
		t.Fatal("expected corrupt varint error")
	}
}

func TestBytesLengthOverflow(t *testing.T) {
	e := NewEncoder(8)
	e.PutUvarint(1 << 40) // claims a huge payload
	d := NewDecoder(e.Bytes())
	if got := d.Bytes(); got != nil {
		t.Errorf("Bytes = %v, want nil", got)
	}
	if d.Err() != ErrShortBuffer {
		t.Errorf("err = %v, want ErrShortBuffer", d.Err())
	}
}

func roundTripSlice[T Number](t *testing.T, in []T) {
	t.Helper()
	e := NewEncoder(0)
	EncodeSlice(e, in)
	out := DecodeSlice[T](NewDecoder(e.Bytes()))
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("elem %d = %v, want %v", i, out[i], in[i])
		}
	}
	// fixed encoding too
	e.Reset()
	EncodeFixedSlice(e, in)
	out = DecodeFixedSlice[T](NewDecoder(e.Bytes()))
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("fixed elem %d = %v, want %v", i, out[i], in[i])
		}
	}
}

func TestSliceRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(s []int64) bool {
		roundTripSlice(t, s)
		return true
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(s []uint64) bool {
		roundTripSlice(t, s)
		return true
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(s []float64) bool {
		for i, v := range s { // NaN breaks == comparison; replace
			if math.IsNaN(v) {
				s[i] = 0
			}
		}
		roundTripSlice(t, s)
		return true
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(s []int8) bool {
		roundTripSlice(t, s)
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

type temperature float64 // derived float type must encode as float

func TestDerivedTypeKinds(t *testing.T) {
	in := []temperature{1.5, -2.25, 1e-30}
	roundTripSlice(t, in)

	e := NewEncoder(0)
	EncodeValue(e, temperature(3.75))
	if got := DecodeValue[temperature](NewDecoder(e.Bytes())); got != 3.75 {
		t.Errorf("derived float round trip = %v", got)
	}
}

func TestValueExtremes(t *testing.T) {
	e := NewEncoder(0)
	EncodeValue(e, uint64(math.MaxUint64))
	EncodeValue(e, int64(math.MinInt64))
	EncodeValue(e, int64(math.MaxInt64))
	d := NewDecoder(e.Bytes())
	if got := DecodeValue[uint64](d); got != math.MaxUint64 {
		t.Errorf("MaxUint64 = %d", got)
	}
	if got := DecodeValue[int64](d); got != math.MinInt64 {
		t.Errorf("MinInt64 = %d", got)
	}
	if got := DecodeValue[int64](d); got != math.MaxInt64 {
		t.Errorf("MaxInt64 = %d", got)
	}
}

func TestEncoderReuse(t *testing.T) {
	e := NewEncoder(4)
	e.PutU64(42)
	first := len(e.Bytes())
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	e.PutU64(43)
	if len(e.Bytes()) != first {
		t.Fatal("reused encoder produced different length")
	}
	if NewDecoder(e.Bytes()).U64() != 43 {
		t.Fatal("reused encoder content wrong")
	}
}

// Fixed-width encoding must use each type's natural width on the wire.
func TestFixedSliceWireWidth(t *testing.T) {
	checkWidth := func(encLen, n, w int) {
		t.Helper()
		// uvarint length prefix for small n is 1 byte
		if encLen != 1+n*w {
			t.Errorf("wire len = %d, want %d (w=%d)", encLen, 1+n*w, w)
		}
	}
	e := NewEncoder(0)
	EncodeFixedSlice(e, []uint8{1, 2, 3})
	checkWidth(e.Len(), 3, 1)
	e.Reset()
	EncodeFixedSlice(e, []int16{-1, 2, 3})
	checkWidth(e.Len(), 3, 2)
	e.Reset()
	EncodeFixedSlice(e, []float32{1.5, -2})
	checkWidth(e.Len(), 2, 4)
	e.Reset()
	EncodeFixedSlice(e, []int64{1, 2})
	checkWidth(e.Len(), 2, 8)
}

func TestFixedSliceAllWidthsRoundTrip(t *testing.T) {
	roundTripSlice(t, []int8{-128, 0, 127})
	roundTripSlice(t, []uint8{0, 200, 255})
	roundTripSlice(t, []int16{-32768, 0, 32767})
	roundTripSlice(t, []uint16{0, 40000, 65535})
	roundTripSlice(t, []int32{-1 << 31, 0, 1<<31 - 1})
	roundTripSlice(t, []uint32{0, 3_000_000_000, 1<<32 - 1})
	roundTripSlice(t, []float32{-1.5, 0, 3.25e10})
	roundTripSlice(t, []uint{0, 1 << 40})
	roundTripSlice(t, []uintptr{0, 42})
}

// A length prefix whose byte size overflows must fail the decoder, not
// wrap around the bounds check into a slicing panic.
func TestNumericSliceLengthOverflow(t *testing.T) {
	e := NewEncoder(16)
	e.PutUvarint(1<<61 + 1)
	e.PutU8(0) // alignment pad
	e.PutU64(0)
	for name, decode := range map[string]func(*Decoder){
		"NumericSlice":            func(d *Decoder) { NumericSlice[uint64](d) },
		"NumericSliceView":        func(d *Decoder) { NumericSliceView[uint64](d) },
		"NumericSliceViewAligned": func(d *Decoder) { NumericSliceViewAligned[uint64](d) },
	} {
		d := NewDecoder(e.Bytes())
		decode(d)
		if d.Err() == nil {
			t.Errorf("%s accepted a %d-element prefix over 9 bytes", name, uint64(1<<61+1))
		}
	}
}
