package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/server"
)

// TestServerMatchesCLIByteForByte is the end-to-end differential test for
// provd: the HTTP server and the provq CLI are two front ends over the same
// query engine and the same queryfmt rendering, so for any query the
// server's text response body must equal the CLI's stdout byte for byte.
// Covered paths: INDEXPROJ, the naïve traversal, forward impact, and the
// parallel multi-run executor.
//
// Linking internal/server into this test binary registers the server.*
// metrics, which is why cmd/provq's metrics_dump_shape golden includes them.
func TestServerMatchesCLIByteForByte(t *testing.T) {
	dir := t.TempDir()
	dsn := "file:" + filepath.Join(dir, "t0.db")

	// Seed tenant t0's store through the CLI itself.
	id1 := runID(t, mustCLI(t, "run", "-store", dsn, "-wf", "testbed", "-l", "4", "-d", "3"))
	id2 := runID(t, mustCLI(t, "run", "-store", dsn, "-wf", "testbed", "-l", "4", "-d", "2"))
	// A gene ID of 135 bytes in 3-byte runes: its rendering is clipped at
	// byte 100, which falls inside a rune.
	wideGene := strings.Repeat("遺伝子", 15)
	idWide := runID(t, mustCLI(t, "run", "-store", dsn, "-wf", "gk",
		"-inputs", `{"list_of_geneIDList": [["`+wideGene+`","mmu:2"],["mmu:3"]]}`))

	srv, err := server.New(server.Config{
		StoreTemplate: "file:" + filepath.Join(dir, "{tenant}.db"),
		TestbedL:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	serverBody := func(params url.Values) string {
		t.Helper()
		params.Set("tenant", "t0")
		resp, err := http.Get(ts.URL + "/v1/query?" + params.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server status %d: %s", resp.StatusCode, body)
		}
		return string(body)
	}

	cases := []struct {
		name   string
		cli    []string
		params url.Values
	}{
		{
			name: "indexproj",
			cli: []string{"query", "-store", dsn, "-run", id1, "-l", "4",
				"-binding", "2TO1_FINAL:product[0,0]", "-focus", "LISTGEN_1", "-method", "indexproj"},
			params: url.Values{"run": {id1}, "binding": {"2TO1_FINAL:product[0,0]"},
				"focus": {"LISTGEN_1"}, "method": {"indexproj"}},
		},
		{
			name: "naive",
			cli: []string{"query", "-store", dsn, "-run", id1, "-l", "4",
				"-binding", "2TO1_FINAL:product[0,0]", "-focus", "LISTGEN_1", "-method", "naive"},
			params: url.Values{"run": {id1}, "binding": {"2TO1_FINAL:product[0,0]"},
				"focus": {"LISTGEN_1"}, "method": {"naive"}},
		},
		{
			name: "forward",
			cli: []string{"query", "-store", dsn, "-run", id1, "-l", "4",
				"-direction", "forward", "-binding", "LISTGEN_1:list[0]", "-focus", "2TO1_FINAL"},
			params: url.Values{"run": {id1}, "direction": {"forward"},
				"binding": {"LISTGEN_1:list[0]"}, "focus": {"2TO1_FINAL"}},
		},
		{
			name: "multirun-parallel",
			cli: []string{"query", "-store", dsn, "-runs", id1 + "," + id2, "-l", "4",
				"-parallel", "4", "-batch", "2",
				"-binding", "workflow:product[0,0]", "-focus", "LISTGEN_1"},
			params: url.Values{"runs": {id1 + "," + id2}, "parallel": {"4"}, "batch": {"2"},
				"binding": {"workflow:product[0,0]"}, "focus": {"LISTGEN_1"}},
		},
		{
			name: "clipped-multibyte-element",
			cli: []string{"query", "-store", dsn, "-run", idWide,
				"-binding", "workflow:paths_per_gene[0,0]", "-focus", "get_pathways_by_genes"},
			params: url.Values{"run": {idWide}, "binding": {"workflow:paths_per_gene[0,0]"},
				"focus": {"get_pathways_by_genes"}},
		},
		{
			name: "novalues",
			cli: []string{"query", "-store", dsn, "-run", id2, "-l", "4",
				"-binding", "2TO1_FINAL:product[0,0]", "-focus", "LISTGEN_1", "-values=false"},
			params: url.Values{"run": {id2}, "binding": {"2TO1_FINAL:product[0,0]"},
				"focus": {"LISTGEN_1"}, "values": {"false"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := mustCLI(t, tc.cli...)
			got := serverBody(tc.params)
			if got != want {
				t.Errorf("server response != CLI output\nCLI:\n%s\nserver:\n%s", want, got)
			}
			if !utf8.ValidString(got) {
				t.Errorf("response is not valid UTF-8:\n%q", got)
			}
		})
	}
}
