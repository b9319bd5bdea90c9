package storage

import (
	"fmt"
	"strings"
)

// PageID identifies a page within a table's heap file. Page numbering is
// dense and starts at 0.
type PageID uint32

// InvalidPageID marks "no page".
const InvalidPageID = PageID(^uint32(0))

// RID is a record identifier: the physical address of a tuple. The Index
// Buffer stores RIDs as postings, and page counters are keyed by
// RID.Page.
type RID struct {
	Page PageID
	Slot uint16
}

// InvalidRID is the zero-meaningful sentinel RID.
var InvalidRID = RID{Page: InvalidPageID, Slot: ^uint16(0)}

// IsValid reports whether the RID addresses a real slot.
func (r RID) IsValid() bool { return r.Page != InvalidPageID }

// String renders the RID as "page:slot".
func (r RID) String() string {
	if !r.IsValid() {
		return "<invalid-rid>"
	}
	return fmt.Sprintf("%d:%d", r.Page, r.Slot)
}

// Less orders RIDs by page then slot; posting lists keep this order so
// scans touch pages sequentially.
func (r RID) Less(o RID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}

// Tuple is an ordered list of values conforming to some schema. Tuples
// are immutable once constructed.
type Tuple struct {
	values []Value
}

// NewTuple builds a tuple from the given values.
func NewTuple(values ...Value) Tuple {
	return Tuple{values: append([]Value(nil), values...)}
}

// Len returns the number of values.
func (t Tuple) Len() int { return len(t.values) }

// Value returns the i-th value.
func (t Tuple) Value(i int) Value { return t.values[i] }

// WithValue returns a copy of t with column i replaced by v.
func (t Tuple) WithValue(i int, v Value) Tuple {
	vals := append([]Value(nil), t.values...)
	vals[i] = v
	return Tuple{values: vals}
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t.values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// EncodedSize returns the number of bytes EncodeTuple will produce for t
// under schema s.
func EncodedSize(s *Schema, t Tuple) int {
	n := 0
	for i := 0; i < t.Len(); i++ {
		n += t.Value(i).EncodedSize()
	}
	_ = s
	return n
}

// EncodeTuple appends the wire form of t to buf. The layout is the
// concatenation of each value's encoding in schema order; the schema is
// required to decode.
func EncodeTuple(s *Schema, t Tuple, buf []byte) ([]byte, error) {
	if err := s.Validate(t); err != nil {
		return nil, err
	}
	for i := 0; i < t.Len(); i++ {
		buf = t.Value(i).AppendEncode(buf)
	}
	return buf, nil
}

// DecodeTuple parses a tuple of schema s from buf. The buffer must
// contain exactly one tuple (trailing bytes are an error), matching how
// slotted pages store one tuple per slot.
func DecodeTuple(s *Schema, buf []byte) (Tuple, error) {
	values := make([]Value, s.NumColumns())
	off := 0
	for i := 0; i < s.NumColumns(); i++ {
		v, n, err := decodeValue(s.Column(i).Kind, buf[off:])
		if err != nil {
			return Tuple{}, fmt.Errorf("storage: column %q: %w", s.Column(i).Name, err)
		}
		values[i] = v
		off += n
	}
	if off != len(buf) {
		return Tuple{}, fmt.Errorf("storage: %d trailing bytes after tuple", len(buf)-off)
	}
	return Tuple{values: values}, nil
}

// DecodeColumn is the column-projected form of DecodeTuple: it returns
// only column col of the tuple in buf. It walks every column's encoded
// length and checks for trailing bytes, so it fails exactly when
// DecodeTuple fails, but it materialises nothing except the one value —
// an INTEGER key costs no allocation. Scans use it to test a predicate
// before paying for a full decode.
func DecodeColumn(s *Schema, buf []byte, col int) (Value, error) {
	if col < 0 || col >= s.NumColumns() {
		return Value{}, fmt.Errorf("storage: column %d out of range (schema has %d)", col, s.NumColumns())
	}
	var key Value
	off := 0
	for i := 0; i < s.NumColumns(); i++ {
		var n int
		var err error
		if i == col {
			key, n, err = decodeValue(s.Column(i).Kind, buf[off:])
		} else {
			n, err = valueLen(s.Column(i).Kind, buf[off:])
		}
		if err != nil {
			return Value{}, fmt.Errorf("storage: column %q: %w", s.Column(i).Name, err)
		}
		off += n
	}
	if off != len(buf) {
		return Value{}, fmt.Errorf("storage: %d trailing bytes after tuple", len(buf)-off)
	}
	return key, nil
}
