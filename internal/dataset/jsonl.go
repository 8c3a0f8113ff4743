package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/mobilebandwidth/swiftest/internal/par"
)

// JSONLWriter streams records to an io.Writer as JSON Lines through a 1 MiB
// buffer. Errors are sticky: after the first failure every call reports it,
// so emit loops can defer the check to the final Flush.
type JSONLWriter struct {
	bw      *bufio.Writer
	enc     *json.Encoder
	written int
	err     error
}

// NewJSONLWriter wraps w. The caller must Flush when done.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriterSize(w, 1<<20)
	return &JSONLWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write emits one record as a JSON line.
func (jw *JSONLWriter) Write(rec *Record) error {
	if jw.err != nil {
		return jw.err
	}
	if err := jw.enc.Encode(rec); err != nil {
		jw.err = fmt.Errorf("dataset: encoding record %d: %w", jw.written, err)
		return jw.err
	}
	jw.written++
	return nil
}

// Flush drains the buffer and reports the first error encountered by any
// prior Write.
func (jw *JSONLWriter) Flush() error {
	if jw.err != nil {
		return jw.err
	}
	if err := jw.bw.Flush(); err != nil {
		jw.err = fmt.Errorf("dataset: flushing records: %w", err)
	}
	return jw.err
}

// WriteJSONL writes records to w, one JSON object per line — the interchange
// format between `swiftest dataset` and `swiftest analyze`.
func WriteJSONL(w io.Writer, records []Record) error {
	jw := NewJSONLWriter(w)
	for i := range records {
		if err := jw.Write(&records[i]); err != nil {
			return err
		}
	}
	return jw.Flush()
}

// WriteJSONLParallel encodes records with the given number of workers
// (workers <= 0 means GOMAXPROCS) and writes the chunks to w in order, so
// the output is byte-identical to WriteJSONL. JSON encoding dominates emit
// cost, so spreading it across cores matters more than the final sequential
// copy.
func WriteJSONLParallel(w io.Writer, records []Record, workers int) error {
	const chunk = 4 * ShardSize
	if workers == 1 || len(records) <= chunk {
		return WriteJSONL(w, records)
	}
	bufs := make([]bytes.Buffer, (len(records)+chunk-1)/chunk)
	if err := par.For(len(bufs), workers, func(c int) error {
		enc := json.NewEncoder(&bufs[c])
		for i := c * chunk; i < min((c+1)*chunk, len(records)); i++ {
			if err := enc.Encode(&records[i]); err != nil {
				return fmt.Errorf("dataset: encoding record %d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	for c := range bufs {
		if _, err := bw.Write(bufs[c].Bytes()); err != nil {
			return fmt.Errorf("dataset: writing records: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads records from r until EOF. Blank lines are skipped; a
// malformed line aborts with an error naming its position.
func ReadJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading records: %w", err)
	}
	return out, nil
}
