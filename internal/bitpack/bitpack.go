// Package bitpack implements bit-granular serialisation.
//
// The Unroller packet header (Table 3 of the paper) packs fields that are
// not byte aligned: an 8-bit hop counter, c·H identifiers of z bits each
// (z is typically 7–32), and a log2(Th)-bit threshold counter. Wire-format
// encoding therefore needs a writer/reader that works at bit granularity.
// Bits are written most-significant first within each byte, matching
// network header conventions.
package bitpack

import "errors"

// ErrShortBuffer is returned by Reader when a read runs past the end of the
// underlying buffer.
var ErrShortBuffer = errors.New("bitpack: read past end of buffer")

// errInvalidWidth is the panic value for a field wider than 64 bits, a
// programming error rather than a wire condition.
var errInvalidWidth = errors.New("bitpack: invalid width (want 0..64 bits)")

// maxWord is the widest field that fits one 64-bit word at any bit
// offset within its first byte (56 + 7 < 64); wider fields are moved as
// two.
const maxWord = 56

// Writer appends bit fields to a byte slice.
// The zero value is an empty writer ready for use.
type Writer struct {
	buf  []byte
	nbit uint // number of valid bits in buf
}

// WriteBits appends the low width bits of v, most significant bit first.
// width must be in [0, 64]; width 0 is a no-op. The field is placed with
// one shift into a 64-bit word aligned to the writer's bit offset and
// then stored byte by byte, so the cost per field does not depend on how
// it straddles byte boundaries.
//
//unroller:hotpath
func (w *Writer) WriteBits(v uint64, width uint) {
	if width > 64 {
		panic(errInvalidWidth)
	}
	if width > maxWord {
		// Wider than one aligned word can hold at every offset: the
		// high part first, then the low 32 bits.
		w.WriteBits(v>>32, width-32)
		v, width = v&0xFFFFFFFF, 32
	}
	if width == 0 {
		return
	}
	off := w.nbit % 8
	first := int(w.nbit / 8)
	w.nbit += width
	n := int((w.nbit + 7) / 8)
	w.grow(n)
	// The field's bits occupy word bits [63−off, 64−off−width]; every
	// byte it touches is the matching byte of word.
	word := v << (64 - width) >> off
	b := w.buf[first:n]
	b[0] = b[0]&^byte(0xFF>>off&0xFF) | byte(word>>56&0xFF)
	for i := 1; i < len(b); i++ {
		b[i] = byte(word >> (56 - 8*uint(i)) & 0xFF)
	}
}

// grow extends buf to n bytes, reallocating only once its capacity is
// exhausted. Bytes it exposes may hold stale data; WriteBits overwrites
// every bit of them.
func (w *Writer) grow(n int) {
	if n > cap(w.buf) {
		w.buf = append(w.buf[:cap(w.buf)], make([]byte, n-cap(w.buf))...)
	}
	w.buf = w.buf[:n]
}

// WriteBool appends a single bit.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() uint { return w.nbit }

// Bytes returns the encoded buffer. The final byte is zero padded.
// The returned slice aliases the writer's internal storage.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse, keeping its allocation.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// ResetBuf points the writer at buf's backing array, preserving buf's
// current contents: subsequent writes append after them and Bytes
// returns the extended slice. No allocation happens until the backing
// array's capacity is exhausted, so callers that re-encode a header
// into a slice they own avoid a scratch buffer per encode.
func (w *Writer) ResetBuf(buf []byte) {
	w.buf = buf
	w.nbit = uint(len(buf)) * 8
}

// Reader consumes bit fields from a byte slice.
type Reader struct {
	buf []byte
	pos uint // bit cursor
}

// NewReader returns a reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBits reads the next width bits (most significant first) and returns
// them in the low bits of the result. width must be in [0, 64]. The
// bytes the field touches are gathered into one 64-bit word and the
// field is cut out of it with one shift and one mask.
//
//unroller:hotpath
func (r *Reader) ReadBits(width uint) (uint64, error) {
	if width > 64 {
		panic(errInvalidWidth)
	}
	end := r.pos + width
	if end > uint(len(r.buf))*8 {
		return 0, ErrShortBuffer
	}
	if width > maxWord {
		// Neither read can fail: the check above covers both.
		hi, _ := r.ReadBits(width - 32)
		lo, _ := r.ReadBits(32)
		return hi<<32 | lo, nil
	}
	var word uint64
	for _, b := range r.buf[r.pos/8 : (end+7)/8] {
		word = word<<8 | uint64(b)
	}
	r.pos = end
	return word >> ((8 - end%8) % 8) & (1<<width - 1), nil
}

// ReadBool reads a single bit.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// Remaining returns how many unread bits are left.
func (r *Reader) Remaining() uint { return uint(len(r.buf))*8 - r.pos }

// Pos returns the current bit offset from the start of the buffer.
func (r *Reader) Pos() uint { return r.pos }
