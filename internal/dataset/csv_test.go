package dataset

import (
	"strings"
	"testing"
)

// FuzzReadCSV fuzzes the CSV decoder, which reads untrusted /assign
// and /ingest request bodies. It must never panic, and a body it
// accepts must be a well-formed matrix: at least one column and one
// record, every record D values wide, and a header (when present) of
// D names.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"1,2,3\n4,5,6\n",
		"a,b\n1.5,-2\n3.25,4\n",
		"1\n",
		"a,b\n",
		"1,2\n3\n",
		"NaN,+Inf,-0,1e308\n",
		"\"1\",\" 2\"\r\n3,4\r\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		m, names, err := ReadCSV(strings.NewReader(body))
		if err != nil {
			return
		}
		if m.D < 1 || m.NumRecords() < 1 {
			t.Fatalf("accepted a %d-column, %d-record matrix", m.D, m.NumRecords())
		}
		if len(m.Values) != m.NumRecords()*m.D {
			t.Fatalf("%d values for %d records of %d columns", len(m.Values), m.NumRecords(), m.D)
		}
		if names != nil && len(names) != m.D {
			t.Fatalf("%d header names for %d columns", len(names), m.D)
		}
	})
}
