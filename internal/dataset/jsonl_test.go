package dataset

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestJSONLRoundTrip(t *testing.T) {
	records := MustNewGenerator(Config{Year: 2021, Seed: 2}).Generate(500)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("read %d records, wrote %d", len(got), len(records))
	}
	for i := range records {
		if got[i] != records[i] {
			t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], records[i])
		}
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	records := MustNewGenerator(Config{Year: 2021, Seed: 3}).Generate(2)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, records); err != nil {
		t.Fatal(err)
	}
	withBlanks := strings.ReplaceAll(buf.String(), "\n", "\n\n")
	got, err := ReadJSONL(strings.NewReader(withBlanks))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
}

func TestReadJSONLMalformed(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"Year\": 2021}\nnot-json\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestReadJSONLEmpty(t *testing.T) {
	got, err := ReadJSONL(strings.NewReader(""))
	if err != nil || got != nil {
		t.Errorf("empty input: %v, %v", got, err)
	}
}

func TestJSONLWriterStreams(t *testing.T) {
	records := MustNewGenerator(Config{Year: 2021, Seed: 4}).Generate(300)
	var want bytes.Buffer
	if err := WriteJSONL(&want, records); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	jw := NewJSONLWriter(&got)
	for i := range records {
		if err := jw.Write(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if jw.written != len(records) {
		t.Fatalf("written = %d, want %d", jw.written, len(records))
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("streamed output differs from WriteJSONL")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestJSONLWriterPropagatesWriteError(t *testing.T) {
	records := MustNewGenerator(Config{Year: 2021, Seed: 5}).Generate(50_000)
	jw := NewJSONLWriter(&failWriter{n: 1 << 20})
	var firstErr error
	for i := range records {
		if err := jw.Write(&records[i]); err != nil {
			firstErr = err
			break
		}
	}
	if err := jw.Flush(); err == nil {
		t.Fatal("Flush succeeded despite failing writer")
	} else if firstErr != nil && err != firstErr {
		t.Errorf("sticky error changed: %v then %v", firstErr, err)
	}
}

func TestWriteJSONLParallelByteIdentical(t *testing.T) {
	records := MustNewGenerator(Config{Year: 2021, Seed: 6}).
		GenerateParallel(5*ShardSize+123, 2)
	var want bytes.Buffer
	if err := WriteJSONL(&want, records); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		var got bytes.Buffer
		if err := WriteJSONLParallel(&got, records, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("workers=%d: parallel output differs from serial", workers)
		}
	}
}
