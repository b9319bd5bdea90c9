package storage

import "testing"

// FuzzDecodeTuple feeds arbitrary bytes to the tuple decoder; it must
// return an error or a valid tuple, never panic. The column-projected
// decoder must agree with it on every input: DecodeColumn fails for a
// column exactly when DecodeTuple fails, and otherwise returns the same
// value DecodeTuple put in that column.
func FuzzDecodeTuple(f *testing.F) {
	s := MustSchema(
		Column{Name: "a", Kind: KindInt64},
		Column{Name: "s", Kind: KindString},
		Column{Name: "b", Kind: KindInt64},
	)
	good, _ := EncodeTuple(s, NewTuple(Int64Value(42), StringValue("FRA"), Int64Value(-1)), nil)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		tu, err := DecodeTuple(s, data)
		for c := 0; c < s.NumColumns(); c++ {
			v, cerr := DecodeColumn(s, data, c)
			if (cerr == nil) != (err == nil) {
				t.Fatalf("column %d: DecodeColumn err = %v, DecodeTuple err = %v", c, cerr, err)
			}
			if err == nil && (v.Kind() != tu.Value(c).Kind() || !v.Equal(tu.Value(c))) {
				t.Fatalf("column %d: DecodeColumn = %v, DecodeTuple has %v", c, v, tu.Value(c))
			}
		}
		if err != nil {
			return
		}
		// A successful decode must round-trip to the same bytes.
		out, err := EncodeTuple(s, tu, nil)
		if err != nil {
			t.Fatalf("re-encode of decoded tuple failed: %v", err)
		}
		if string(out) != string(data) {
			t.Fatalf("round trip mismatch: %x -> %x", data, out)
		}
	})
}
