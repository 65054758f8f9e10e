package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"reflect"
	"time"
)

// client is one closed-loop caller: one keep-alive connection, the next
// request sent only after the previous answer was read and checked.
type client struct {
	hc  *http.Client
	buf bytes.Buffer // response body, reused
	rec *recorder    // nil on end-to-end runs: nothing is traced there
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// newPost builds a POST carrying the trace context of the op span, if any.
func newPost(url string, body []byte, opSpan live) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	opSpan.inject(req.Header)
	return req, nil
}

// post sends body and reads the whole answer into c.buf. The returned
// duration runs from just before the send to the last body byte; the
// client.request span under opSpan covers the same interval.
func (c *client) post(url string, body []byte, opSpan live) (status int, took time.Duration, err error) {
	rq := c.rec.start("client.request", opSpan.s.ID, opSpan.s.Req, opSpan.s.Class)
	defer rq.end()
	req, err := newPost(url, body, rq)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, time.Since(t0), err
}

// getJSON fetches url and decodes the answer into v.
func (c *client) getJSON(url string, v any) error {
	resp, err := c.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 300))
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *client) counters(base string) (counters, error) {
	var m counters
	err := c.getJSON(base+"/v1/metrics", &m)
	return m, err
}

// digest identifies a tuple table by the bytes kokod encodes it to: tuple
// count, byte length and CRC-32C. Evaluation and encoding are deterministic,
// so once a response was compared tuple by tuple with the oracle, every later
// response to the same query must carry the same digest.
type digest struct {
	Tuples int
	Bytes  int
	CRC    uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	tuplesOpen  = []byte(`"tuples":[`)
	tuplesClose = []byte(`],"candidates":`)
	tupleStart  = []byte(`{"sentence_id":`)
	tupleLine   = []byte(`{"tuple":`)
)

// bufferedDigest digests the tuple array of a buffered /v1/query body.
func bufferedDigest(body []byte) (digest, error) {
	i := bytes.Index(body, tuplesOpen)
	j := bytes.LastIndex(body, tuplesClose)
	if i < 0 || j < i {
		return digest{}, fmt.Errorf("no tuple array in response: %.120s", body)
	}
	seg := body[i+len(tuplesOpen) : j]
	return digest{Tuples: bytes.Count(seg, tupleStart), Bytes: len(seg), CRC: crc32.Checksum(seg, castagnoli)}, nil
}

// queryResponse is what the benchmark decodes of a buffered answer.
type queryResponse struct {
	Tuples []tuple `json:"tuples"`
	Cached bool    `json:"cached"`
}

// streamLine is one NDJSON line of a streamed answer.
type streamLine struct {
	Tuple *tuple          `json:"tuple"`
	Done  json.RawMessage `json:"done"`
	Error string          `json:"error"`
}

// answer is one completed query op as the client saw it.
type answer struct {
	Total  time.Duration
	TTFT   time.Duration // stream ops only: send to first tuple line
	Digest digest
	Tuples []tuple // only when decode was asked for
}

func queryBody(q *query, noCache bool) []byte {
	b, err := json.Marshal(queryRequest{Corpus: q.Corpus, Query: q.Text, NoCache: noCache})
	if err != nil {
		panic(err) // strings and a bool cannot fail to encode
	}
	return b
}

// runQuery sends o to base and reads the answer. With decode the tuples are
// parsed as well (set-up and the mutating corpus); without, only digested.
func (c *client) runQuery(base string, o op, decode bool) (answer, error) {
	opSpan := c.rec.start("op", 0, 0, reportClass(o.Class))
	defer opSpan.end()
	if o.Class == classStream {
		return c.runStream(base, o, decode, opSpan)
	}
	status, took, err := c.post(base+"/v1/query", queryBody(o.Q, true), opSpan)
	if err != nil {
		return answer{}, err
	}
	body := c.buf.Bytes()
	if status != http.StatusOK {
		return answer{}, fmt.Errorf("%s: HTTP %d: %.200s", o.Q.ID, status, body)
	}
	vs := c.rec.start("client.verify", opSpan.s.ID, opSpan.s.Req, opSpan.s.Class)
	defer vs.end()
	a := answer{Total: took}
	if a.Digest, err = bufferedDigest(body); err != nil {
		return a, err
	}
	if decode {
		var r queryResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return a, fmt.Errorf("%s: decode: %w", o.Q.ID, err)
		}
		if r.Cached {
			return a, fmt.Errorf("%s: served from the result cache despite no_cache", o.Q.ID)
		}
		a.Tuples = r.Tuples
	}
	return a, nil
}

// runStream sends o with ?stream=1 and consumes the NDJSON answer line by
// line, noting when the first tuple line arrived. Lines are digested as they
// arrive, so the request span of a stream op includes the client's checking.
func (c *client) runStream(base string, o op, decode bool, opSpan live) (answer, error) {
	rq := c.rec.start("client.request", opSpan.s.ID, opSpan.s.Req, opSpan.s.Class)
	defer rq.end()
	req, err := newPost(base+"/v1/query?stream=1", queryBody(o.Q, true), rq)
	if err != nil {
		return answer{}, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return answer{}, fmt.Errorf("%s: stream HTTP %d: %s", o.Q.ID, resp.StatusCode, b)
	}
	var a answer
	done := false
	crc := uint32(0)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, tupleLine):
			if a.Digest.Tuples == 0 {
				a.TTFT = time.Since(t0)
			}
			a.Digest.Tuples++
			a.Digest.Bytes += len(line)
			crc = crc32.Update(crc, castagnoli, line)
			if decode {
				var sl streamLine
				if err := json.Unmarshal(line, &sl); err != nil || sl.Tuple == nil {
					return a, fmt.Errorf("%s: bad tuple line: %.120s", o.Q.ID, line)
				}
				a.Tuples = append(a.Tuples, *sl.Tuple)
			}
		case bytes.HasPrefix(line, []byte(`{"done":`)):
			done = true
		case bytes.HasPrefix(line, []byte(`{"error":`)):
			return a, fmt.Errorf("%s: stream failed: %.200s", o.Q.ID, line)
		}
	}
	if err := sc.Err(); err != nil {
		return a, fmt.Errorf("%s: reading stream: %w", o.Q.ID, err)
	}
	a.Total = time.Since(t0)
	a.Digest.CRC = crc
	if !done {
		return a, fmt.Errorf("%s: stream ended without a done line", o.Q.ID)
	}
	return a, nil
}

// sameTuples reports the first difference between got and want, or "".
func sameTuples(got, want []tuple) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d tuples, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("tuple %d is %+v, oracle has %+v", i, got[i], want[i])
		}
	}
	return ""
}

// ingestBody is the request for pool document i.
func ingestBody(pool *corpusData, i int) []byte {
	b, err := json.Marshal(ingestRequest{Name: ingestDocName(i), Text: pool.DocText(i)})
	if err != nil {
		panic(err)
	}
	return b
}

func ingestDocName(i int) string { return fmt.Sprintf("ingest-%06d", i) }

// ingestAck is what the benchmark checks of an ingest answer.
type ingestAck struct {
	Document int  `json:"document"`
	Updated  bool `json:"updated"`
	Corpus   struct {
		Documents int `json:"documents"`
	} `json:"corpus"`
}

// runIngest posts one prepared document and checks the acknowledgement: it
// must be a new document, placed at index wantDoc.
func (c *client) runIngest(base, corpusName string, body []byte, wantDoc int) (time.Duration, error) {
	opSpan := c.rec.start("op", 0, 0, "ingest")
	defer opSpan.end()
	status, took, err := c.post(base+"/v1/corpora/"+corpusName+"/documents", body, opSpan)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("ingest: HTTP %d: %.200s", status, c.buf.Bytes())
	}
	var ack ingestAck
	if err := json.Unmarshal(c.buf.Bytes(), &ack); err != nil {
		return 0, fmt.Errorf("ingest: decode: %w", err)
	}
	if ack.Updated || ack.Document != wantDoc || ack.Corpus.Documents != wantDoc+1 {
		return 0, fmt.Errorf("ingest: acknowledged document %d of %d (updated=%v), want new document %d",
			ack.Document, ack.Corpus.Documents, ack.Updated, wantDoc)
	}
	return took, nil
}
