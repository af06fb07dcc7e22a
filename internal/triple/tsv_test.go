package triple

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestTSVRoundTrip(t *testing.T) {
	d := NewDataset()
	d.Add(Record{Extractor: "E1", Pattern: "p\t1", Website: "w.com", Page: "w.com/a",
		Subject: "Barack Obama", Predicate: "nationality", Object: "USA", Confidence: 0.85})
	d.Add(Record{Extractor: "E2", Pattern: "p2", Website: "x.com", Page: "x.com/b",
		Subject: "line\nbreak", Predicate: "p", Object: "back\\slash"})

	var buf bytes.Buffer
	if err := WriteTSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(got.Records))
	}
	if got.Records[0].Pattern != "p\t1" {
		t.Errorf("tab not round-tripped: %q", got.Records[0].Pattern)
	}
	if got.Records[0].Confidence != 0.85 {
		t.Errorf("confidence = %v", got.Records[0].Confidence)
	}
	if got.Records[1].Subject != "line\nbreak" {
		t.Errorf("newline not round-tripped: %q", got.Records[1].Subject)
	}
	if got.Records[1].Object != "back\\slash" {
		t.Errorf("backslash not round-tripped: %q", got.Records[1].Object)
	}
	if got.Records[1].Conf() != 1 {
		t.Errorf("default confidence = %v, want 1", got.Records[1].Conf())
	}
}

// TestTSVRoundTripProperty: Write→Read must reproduce every record field
// exactly, over randomized field contents (including escaped tabs, newlines
// and backslashes) and confidences — in particular, an unspecified
// confidence (0) must round-trip as unspecified, not as a hard 1.0.
func TestTSVRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pieces := []string{"a", "b.com", "", "x y", "\t", "\n", "\r", "\\", "\\t", "t\tb", "n\nb", `mix\t\n\\`, "ünïcode", "#lead", "trail\\"}
	randField := func(nonEmpty bool) string {
		var b strings.Builder
		n := rng.Intn(3) + 1
		for i := 0; i < n; i++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		s := b.String()
		if nonEmpty && s == "" {
			return "z"
		}
		return s
	}
	for trial := 0; trial < 200; trial++ {
		d := NewDataset()
		n := rng.Intn(6) + 1
		for i := 0; i < n; i++ {
			rec := Record{
				// Identity fields non-empty so a record never serialises to
				// a blank (skipped) line.
				Extractor: randField(true),
				Pattern:   randField(false),
				Website:   randField(true),
				Page:      randField(false),
				Subject:   randField(true),
				Predicate: randField(true),
				Object:    randField(true),
			}
			switch rng.Intn(3) {
			case 0: // unspecified
			case 1:
				rec.Confidence = 1
			default:
				rec.Confidence = float64(rng.Intn(1000)+1) / 1000
			}
			d.Add(rec)
		}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, d); err != nil {
			t.Fatal(err)
		}
		got, err := ReadTSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: read back: %v\nserialised:\n%q", trial, err, buf.String())
		}
		if len(got.Records) != len(d.Records) {
			t.Fatalf("trial %d: %d records round-tripped to %d", trial, len(d.Records), len(got.Records))
		}
		for i, want := range d.Records {
			if got.Records[i] != want {
				t.Fatalf("trial %d: record %d round-tripped to\n %#v\nwant\n %#v", trial, i, got.Records[i], want)
			}
		}
	}
}

// TestTSVUnspecifiedConfidenceStaysUnspecified pins the regression: a record
// with Confidence == 0 must not come back as a hard 1.0.
func TestTSVUnspecifiedConfidenceStaysUnspecified(t *testing.T) {
	d := NewDataset()
	d.Add(Record{Extractor: "E", Pattern: "p", Website: "w", Page: "w/1",
		Subject: "s", Predicate: "pr", Object: "o"})
	var buf bytes.Buffer
	if err := WriteTSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Records[0].Confidence != 0 {
		t.Errorf("unspecified confidence round-tripped as %v, want 0 (unspecified)", got.Records[0].Confidence)
	}
	if got.Records[0].Conf() != 1 {
		t.Errorf("effective confidence = %v, want 1", got.Records[0].Conf())
	}
}

func TestReadTSVSkipsCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\nE1\tp\tw\tw/1\ts\tpred\to\t0.5\n"
	d, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Records) != 1 {
		t.Fatalf("records = %d, want 1", len(d.Records))
	}
}

// badTSVLines are inputs ReadTSV must reject.
var badTSVLines = []string{
	"E1\tp\tw\tw/1\ts\tpred\n",                // too few columns
	"E1\tp\tw\tw/1\ts\tpred\to\t0.5\textra\n", // too many columns
	"E1\tp\tw\tw/1\ts\tpred\to\tnope\n",       // bad confidence
	"E1\tp\tw\tw/1\ts\tpred\to\t1.5\n",        // out-of-range confidence
	"E1\tp\tw\tw/1\ts\tpred\to\t-0.25\n",      // negative confidence
	"E1\tp\tw\tw/1\ts\tpred\to\tNaN\n",        // NaN confidence
}

func TestReadTSVErrors(t *testing.T) {
	for _, in := range badTSVLines {
		if _, err := ReadTSV(strings.NewReader(in)); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

// TestTSVWriteOutOfRangeConfidence: an out-of-range in-memory confidence has
// no on-disk representation the reader accepts, so it serialises as its
// effective Conf() — the file stays readable.
func TestTSVWriteOutOfRangeConfidence(t *testing.T) {
	d := NewDataset()
	d.Add(Record{Extractor: "E", Pattern: "p", Website: "w", Page: "w/1",
		Subject: "s", Predicate: "pr", Object: "o", Confidence: 1.5})
	var buf bytes.Buffer
	if err := WriteTSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatalf("out-of-range confidence produced an unreadable file: %v", err)
	}
	if got.Records[0].Confidence != 1 {
		t.Errorf("confidence 1.5 round-tripped as %v, want effective 1", got.Records[0].Confidence)
	}
}

func TestReadTSVMissingConfidenceColumn(t *testing.T) {
	d, err := ReadTSV(strings.NewReader("E1\tp\tw\tw/1\ts\tpred\to\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Records[0].Conf() != 1 {
		t.Errorf("missing confidence should mean 1, got %v", d.Records[0].Conf())
	}
}

// FuzzReadTSV: ReadTSV never panics, and every input it accepts survives a
// WriteTSV -> ReadTSV round trip unchanged. The first seed is a field that
// needs escaping and is not valid UTF-8 (its byte once came back as U+FFFD).
func FuzzReadTSV(f *testing.F) {
	f.Add("0\t\t\t\t\\t\x88\t\t")
	for _, in := range badTSVLines {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		d, err := ReadTSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, d); err != nil {
			t.Fatalf("WriteTSV: %v", err)
		}
		back, err := ReadTSV(&buf)
		if err != nil {
			t.Fatalf("re-reading %q: %v", buf.String(), err)
		}
		if !reflect.DeepEqual(back.Records, d.Records) {
			t.Fatalf("round trip changed the records:\n got  %+v\n want %+v", back.Records, d.Records)
		}
	})
}
