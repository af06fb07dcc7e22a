package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzIngestBody drives POST /v1/ingest with arbitrary bodies against an
// in-memory engine. The handler must never panic and must answer 200 or
// 400; a 200 must grow the engine by exactly its acked count and only for a
// body that is exactly one JSON array, and a 400 must leave the engine as it
// was.
func FuzzIngestBody(f *testing.F) {
	for _, seed := range []string{
		"{not json",
		`{"Subject":"s"}`,
		`[{"Nope":"x"}]`,
		`[]`,
		`[{"Extractor":"E","Website":"w.com","Page":"w.com/p","Predicate":"p","Object":"o"}]`,
		"[" + validRecord + "] [" + validRecord + "," + validRecord + "] garbage",
		"[" + validRecord + "," + validRecord + "]",
		"[" + validRecord + "]\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		eng := testEngine(t)
		srv := New(eng, Options{RefreshEvery: -1})
		defer srv.Close()

		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			var ack map[string]int
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatalf("200 with undecodable ack %q: %v", rec.Body.String(), err)
			}
			if got := eng.Len(); got != ack["ingested"] {
				t.Fatalf("engine grew by %d records, ack says %d", got, ack["ingested"])
			}
			var arr []json.RawMessage
			if err := json.Unmarshal(body, &arr); err != nil || len(arr) != ack["ingested"] {
				t.Fatalf("200 for a body that is not exactly one %d-element JSON array (%v): %q",
					ack["ingested"], err, body)
			}
		case http.StatusBadRequest:
			if got := eng.Len(); got != 0 {
				t.Fatalf("400 left %d records behind for body %q", got, body)
			}
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}
