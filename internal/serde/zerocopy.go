package serde

import (
	"unsafe"
)

// Zero-copy numeric slice fast path. The fixed natural-width wire format
// of EncodeFixedSlice (little-endian elements, uvarint length prefix) is
// byte-identical to the in-memory layout of []T on little-endian hosts,
// so a whole slice can move with one memmove instead of an
// element-at-a-time encode loop. Big-endian hosts fall back to the
// portable loops; the bytes on the wire are identical either way.

// hostLittleEndian is detected once at startup; Go has no compile-time
// endianness constant.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// Cap reports the capacity of the encoder's underlying buffer. Buffer
// pools use it to drop oversized encoders instead of retaining them.
func (e *Encoder) Cap() int { return cap(e.buf) }

// PutNumericSlice appends a length-prefixed []T in the EncodeFixedSlice
// wire format. Go methods cannot introduce type parameters, so the
// fast-path pair PutNumericSlice/NumericSlice are free functions over
// *Encoder/*Decoder rather than methods.
func PutNumericSlice[T Number](e *Encoder, s []T) {
	e.PutUvarint(uint64(len(s)))
	if len(s) == 0 {
		return
	}
	if hostLittleEndian {
		w := int(unsafe.Sizeof(s[0]))
		raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*w)
		e.buf = append(e.buf, raw...)
		return
	}
	putFixedElems(e, s)
}

// NumericSlice reads a slice written by PutNumericSlice/EncodeFixedSlice
// into freshly allocated memory (one memmove on little-endian hosts).
// The result never aliases the decoder's buffer.
func NumericSlice[T Number](d *Decoder) []T {
	w := SizeOf[T]()
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining())/uint64(w) {
		d.fail(ErrShortBuffer)
		return nil
	}
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if hostLittleEndian {
		raw := d.take(int(n) * w)
		if d.err != nil {
			return nil
		}
		dst := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(out))), len(raw))
		copy(dst, raw)
		return out
	}
	takeFixedElems(d, out)
	if d.err != nil {
		return nil
	}
	return out
}

// Align pads the encoded stream with a self-describing pad — one length
// byte plus that many zero bytes — so the next write lands on an
// align-byte boundary of the encoder's buffer. The matching decoder must
// call Align at the same point. Transports that deliver batches at an
// aligned base address and preserve intra-message offsets thereby make
// the NumericSliceView aliasing fast path reliable instead of incidental.
func (e *Encoder) Align(align int) {
	pad := (align - (len(e.buf)+1)%align) % align
	e.buf = append(e.buf, byte(pad))
	for ; pad > 0; pad-- {
		e.buf = append(e.buf, 0)
	}
}

// Align skips padding written by Encoder.Align. The pad length travels on
// the wire, so decoding stays correct even when the transport did not
// preserve alignment (the view fallback then copies).
func (d *Decoder) Align(int) {
	if pad := int(d.U8()); pad > 0 {
		d.take(pad)
	}
}

// PutNumericSliceAligned is PutNumericSlice with an alignment pad between
// the length prefix and the payload so that NumericSliceViewAligned can
// alias the payload on the receiving side.
func PutNumericSliceAligned[T Number](e *Encoder, s []T) {
	e.PutUvarint(uint64(len(s)))
	if len(s) == 0 {
		return
	}
	var zero T
	e.Align(int(unsafe.Alignof(zero)))
	if hostLittleEndian {
		w := int(unsafe.Sizeof(zero))
		raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*w)
		e.buf = append(e.buf, raw...)
		return
	}
	putFixedElems(e, s)
}

// NumericSliceViewAligned decodes a slice written by
// PutNumericSliceAligned, aliasing the decoder's buffer when the payload
// landed aligned; the dynamic pointer check still guards transports that
// shifted the message, falling back to a copy.
func NumericSliceViewAligned[T Number](d *Decoder) []T {
	var zero T
	w := int(unsafe.Sizeof(zero))
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return []T{}
	}
	d.Align(int(unsafe.Alignof(zero)))
	if n > uint64(d.Remaining())/uint64(w) {
		d.fail(ErrShortBuffer)
		return nil
	}
	if !hostLittleEndian {
		out := make([]T, n)
		takeFixedElems(d, out)
		if d.err != nil {
			return nil
		}
		return out
	}
	raw := d.take(int(n) * w)
	if d.err != nil {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(raw))
	if uintptr(p)%unsafe.Alignof(zero) != 0 {
		out := make([]T, n)
		dst := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(out))), len(raw))
		copy(dst, raw)
		return out
	}
	return unsafe.Slice((*T)(p), int(n))
}

// NumericSliceView is like NumericSlice but, when the payload is suitably
// aligned on a little-endian host, returns a []T view aliasing the
// decoder's buffer — zero allocation, zero copy. The view is only valid
// while the underlying buffer is; callers must finish with it before
// handing the buffer back to the transport. Misaligned or big-endian
// inputs transparently decode into fresh memory instead.
func NumericSliceView[T Number](d *Decoder) []T {
	if !hostLittleEndian {
		return NumericSlice[T](d)
	}
	var zero T
	w := int(unsafe.Sizeof(zero))
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining())/uint64(w) {
		d.fail(ErrShortBuffer)
		return nil
	}
	if n == 0 {
		return []T{}
	}
	raw := d.take(int(n) * w)
	if d.err != nil {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(raw))
	if uintptr(p)%unsafe.Alignof(zero) != 0 {
		// Misaligned view would trip checkptr under -race; copy instead.
		out := make([]T, n)
		dst := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(out))), len(raw))
		copy(dst, raw)
		return out
	}
	return unsafe.Slice((*T)(p), int(n))
}
