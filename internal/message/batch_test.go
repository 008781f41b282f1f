package message

import (
	"bytes"
	"errors"
	"testing"
)

func TestBatchEnvelopeRoundTrip(t *testing.T) {
	in := []BatchEntry{
		{ID: 0, Kind: BatchKindGet, Body: []byte("opaque-0")},
		{ID: 1, Kind: BatchKindPost, Body: []byte("opaque-1")},
		{ID: 2, Kind: BatchKindGet, Status: 503, Body: nil},
	}
	data, err := MarshalBatchEpoch(nil, 0, in)
	if err != nil {
		t.Fatalf("MarshalBatchEpoch: %v", err)
	}
	_, out, err := DecodeBatchFrame(data)
	if err != nil {
		t.Fatalf("DecodeBatchFrame: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("entries = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || out[i].Kind != in[i].Kind ||
			out[i].Status != in[i].Status || !bytes.Equal(out[i].Body, in[i].Body) {
			t.Errorf("entry %d round-tripped to %+v, want %+v", i, out[i], in[i])
		}
	}
}

// The frame is the only batch wire format: the retired JSON envelope and
// anything else without the frame magic are rejected, not parsed.
func TestBatchEnvelopeRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"not a frame", []byte("{")},
		{"retired JSON envelope", []byte(`{"v":1,"entries":[{"id":0,"kind":"get"}]}`)},
		{"empty", nil},
	}
	for _, tc := range cases {
		if _, _, err := DecodeBatchFrame(tc.data); !errors.Is(err, ErrNotFrame) {
			t.Errorf("%s: err = %v, want ErrNotFrame", tc.name, err)
		}
	}
}

func TestBatchKindPaths(t *testing.T) {
	for kind, path := range map[string]string{
		BatchKindGet:  QueriesPath,
		BatchKindPost: EventsPath,
	} {
		got, ok := BatchKindPath(kind)
		if !ok || got != path {
			t.Errorf("BatchKindPath(%q) = %q/%v, want %q", kind, got, ok, path)
		}
		back, ok := PathBatchKind(path)
		if !ok || back != kind {
			t.Errorf("PathBatchKind(%q) = %q/%v, want %q", path, back, ok, kind)
		}
	}
	if _, ok := BatchKindPath("nope"); ok {
		t.Error("BatchKindPath accepted an unknown kind")
	}
	if _, ok := PathBatchKind("/nope"); ok {
		t.Error("PathBatchKind accepted an unknown path")
	}
}
