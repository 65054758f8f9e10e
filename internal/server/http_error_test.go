package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/koko/index"
	"repro/koko"
)

// TestErrorEnvelope: every /v1 failure answers the unified envelope
// {"error":{"code":"...","message":"..."}} with the documented stable code
// and status.
func TestErrorEnvelope(t *testing.T) {
	svc := NewService(Config{CacheSize: 8})
	RegisterDemoCorpora(svc.Registry(), 2)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"unknown corpus", "POST", "/v1/query",
			`{"corpus":"nope","query":"extract x:Entity from \"blogs\" if ()"}`,
			http.StatusNotFound, "not_found"},
		{"bad query", "POST", "/v1/query",
			`{"corpus":"demo-cafes","query":"extract nonsense"}`,
			http.StatusBadRequest, "bad_query"},
		{"undecodable body", "POST", "/v1/query", `{not json`,
			http.StatusBadRequest, "bad_request"},
		{"missing fields", "POST", "/v1/query", `{}`,
			http.StatusBadRequest, "bad_request"},
		{"unknown job", "GET", "/v1/jobs/absent", "",
			http.StatusNotFound, "not_found"},
		{"unreloadable corpus", "POST", "/v1/corpora/demo-cafes/reload", "",
			http.StatusConflict, "not_reloadable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			var env struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("response is not the error envelope: %v", err)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code %q, want %q", env.Error.Code, tc.code)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestDamagedStoreIsInternal: a query that reads a damaged block of its
// corpus's store fails as the server's fault — 500 internal, counted in
// query_errors — not as the client's bad query, buffered and streamed alike.
func TestDamagedStoreIsInternal(t *testing.T) {
	const unionQuery = `extract d:Str from "moments" if (/ROOT:{ v = //verb, o = v/dobj, d = (o.subtree) })`
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.koko")
	if err := koko.NewEngine(koko.WrapCorpus(corpus.GenHappyDB(300, 3)), nil).Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The corruption walk of koko's TestBlockStoreCorruptNodeBlock: the
	// posting blob ends the file and the POS node lists end the blob, so
	// walk back from the end flipping one byte until the union query, which
	// reads only node lists, fails with a *index.StoreError.
	damaged := ""
	blobLen := int(binary.LittleEndian.Uint64(raw[24:32]))
	for off := len(raw) - 1; off >= len(raw)-blobLen && damaged == ""; off -= 61 {
		bad := bytes.Clone(raw)
		bad[off] ^= 0xff
		p := filepath.Join(dir, fmt.Sprintf("bad-%d.koko", off))
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := koko.Open(p, nil)
		if err != nil {
			t.Fatalf("Open with a damaged blob byte at %d: %v (want lazy failure)", off, err)
		}
		var se *index.StoreError
		if _, err := e.Query(unionQuery); errors.As(err, &se) {
			damaged = p
		}
	}
	if damaged == "" {
		t.Fatal("no damaged byte reached the //verb/dobj union")
	}

	svc := NewService(Config{})
	if err := svc.Registry().LoadFile("c", damaged); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/query", "/v1/query?stream=1"} {
		resp, body := postJSON(t, ts, path, QueryRequest{Corpus: "c", Query: unionQuery, NoCache: true})
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: undecodable error body %q: %v", path, body, err)
		}
		if resp.StatusCode != http.StatusInternalServerError || e.Error.Code != "internal" {
			t.Errorf("%s over a damaged store: status %d code %q (%s), want 500 internal", path, resp.StatusCode, e.Error.Code, body)
		}
	}
	if m := svc.Metrics(); m.QueryErrors != 2 {
		t.Errorf("query_errors = %d, want 2", m.QueryErrors)
	}
}
