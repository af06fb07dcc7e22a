package triple

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// TSV codec for extraction records. The on-disk format is one record per
// line with 8 tab-separated columns, the last one optional:
//
//	extractor  pattern  website  page  subject  predicate  object  [confidence]
//
// A missing or empty confidence column means "unspecified" (the model treats
// it as 1; see Record.Confidence), and writing preserves that distinction:
// an unspecified confidence round-trips as an omitted column, not as a hard
// 1.0. Lines that are blank or start with '#' are skipped. This is the
// interchange format accepted by cmd/kbt.

// WriteTSV writes all records of the dataset to w.
func WriteTSV(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	for _, r := range d.Records {
		if err := writeRecord(bw, r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeRecord(w io.Writer, r Record) error {
	// The confidence column carries the raw field, not the effective
	// Conf(): serialising an unspecified confidence (0) as "1" would turn
	// every round trip into a lossy normalisation. Out-of-range in-memory
	// values have no on-disk representation the reader accepts, so they
	// serialise as their effective Conf() instead.
	conf := ""
	if c := r.Confidence; c != 0 {
		if math.IsNaN(c) || c < 0 || c > 1 {
			c = r.Conf()
		}
		conf = "\t" + strconv.FormatFloat(c, 'g', -1, 64)
	}
	ext := escape(r.Extractor)
	if strings.HasPrefix(ext, "#") {
		// A leading '#' would make the line a comment; escape it (the
		// reader's unescaper maps any unknown \x back to x).
		ext = `\` + ext
	}
	_, err := fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s%s\n",
		ext, escape(r.Pattern), escape(r.Website), escape(r.Page),
		escape(r.Subject), escape(r.Predicate), escape(r.Object), conf)
	return err
}

// ReadTSV parses records from r into a new Dataset.
func ReadTSV(r io.Reader) (*Dataset, error) {
	d := NewDataset()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("triple: line %d: %w", lineNo, err)
		}
		d.Add(rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("triple: scan: %w", err)
	}
	return d, nil
}

// ParseTSVLine parses a single TSV record line — the streaming counterpart
// to ReadTSV for callers that feed records into an incremental consumer as
// they arrive. Blank and comment lines are the caller's concern.
func ParseTSVLine(line string) (Record, error) { return parseLine(line) }

func parseLine(line string) (Record, error) {
	cols := strings.Split(line, "\t")
	if len(cols) < 7 || len(cols) > 8 {
		return Record{}, fmt.Errorf("expected 8 tab-separated columns (confidence optional), got %d", len(cols))
	}
	rec := Record{
		Extractor: unescape(cols[0]),
		Pattern:   unescape(cols[1]),
		Website:   unescape(cols[2]),
		Page:      unescape(cols[3]),
		Subject:   unescape(cols[4]),
		Predicate: unescape(cols[5]),
		Object:    unescape(cols[6]),
	}
	if len(cols) == 8 && cols[7] != "" {
		c, err := strconv.ParseFloat(cols[7], 64)
		if err != nil {
			return Record{}, fmt.Errorf("bad confidence %q: %w", cols[7], err)
		}
		if math.IsNaN(c) || c < 0 || c > 1 {
			return Record{}, fmt.Errorf("confidence %v out of [0,1]", c)
		}
		rec.Confidence = c
	}
	return rec, nil
}

// escape protects tabs, newlines and carriage returns inside field values
// (the line scanner would otherwise split on the former and strip the
// latter). It works byte-wise: every escaped character is ASCII, and a
// field that is not valid UTF-8 must come back byte for byte.
func escape(s string) string {
	if !strings.ContainsAny(s, "\t\n\r\\") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\t':
			b.WriteString(`\t`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func unescape(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
