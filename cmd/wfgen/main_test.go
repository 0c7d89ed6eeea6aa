package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/workflow"
)

// TestGenerateKinds generates every workflow kind to a file and to stdout:
// the JSON must unmarshal back into a valid workflow.
func TestGenerateKinds(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		kind string
		args []string
		name string
	}{
		{"testbed", []string{"-wf", "testbed", "-l", "7"}, "testbed_l7"},
		{"gk", []string{"-wf", "gk"}, "genes2Kegg"},
		{"pd", []string{"-wf", "pd"}, "protein_discovery"},
	} {
		path := filepath.Join(dir, tc.kind+".json")
		var out, errb bytes.Buffer
		if err := run(append(tc.args, "-o", path), &out, &errb); err != nil {
			t.Fatalf("wfgen %v: %v", tc.args, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var w workflow.Workflow
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatalf("%s: bad JSON: %v", tc.kind, err)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: generated workflow invalid: %v", tc.kind, err)
		}
		if w.Name != tc.name {
			t.Errorf("%s: workflow name %q, want %q", tc.kind, w.Name, tc.name)
		}

		// Same generation to stdout must produce the same bytes.
		out.Reset()
		if err := run(tc.args, &out, &errb); err != nil {
			t.Fatalf("wfgen %v to stdout: %v", tc.args, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Errorf("%s: stdout output differs from file output", tc.kind)
		}
		if !strings.HasSuffix(out.String(), "\n") {
			t.Errorf("%s: output is not newline-terminated", tc.kind)
		}
	}
}

// TestGenerateErrors pins the failure modes.
func TestGenerateErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-wf", "nosuch"},
		{"-wf", "testbed", "-l", "0"},
		{"-badflag"},
	} {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("wfgen %v succeeded, want error", args)
		}
	}
}

// TestIngestModes runs the execute-and-ingest path across workflow kinds and
// batch/parallel settings, checking the throughput line and — for a durable
// store — that the ingested runs survive a reopen.
func TestIngestModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"testbed batched parallel", []string{"-wf", "testbed", "-l", "5", "-d", "5", "-runs", "3", "-parallel", "2", "-batch", "64"}},
		{"testbed batch=1", []string{"-wf", "testbed", "-l", "5", "-d", "5", "-runs", "2", "-parallel", "1", "-batch", "1"}},
		{"gk", []string{"-wf", "gk", "-runs", "2", "-d", "2"}},
		{"pd", []string{"-wf", "pd", "-runs", "2", "-d", "3"}},
	} {
		var out, errb bytes.Buffer
		if err := run(append(tc.args, "-o", filepath.Join(t.TempDir(), "wf.json")), &out, &errb); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(out.String(), "rows/sec") {
			t.Errorf("%s: no throughput line in output: %q", tc.name, out.String())
		}
	}
}

// TestIngestDurable ingests into a durable store and reopens it: every run
// and its records must still be there.
func TestIngestDurable(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	args := []string{"-wf", "testbed", "-l", "5", "-d", "5", "-runs", "3",
		"-store", "durable:" + dir, "-o", filepath.Join(t.TempDir(), "wf.json")}
	if err := run(args, &out, &errb); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open("durable:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runs, err := st.ListRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("reopened store has %d runs, want 3", len(runs))
	}
	total, err := st.TotalRecords("")
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("reopened store has no records")
	}
}

// TestIngestErrors pins the ingest failure modes.
func TestIngestErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-wf", "testbed", "-runs", "1", "-d", "0"},
		{"-wf", "testbed", "-runs", "1", "-store", "bogus:zzz"},
	} {
		var out, errb bytes.Buffer
		if err := run(append(args, "-o", filepath.Join(t.TempDir(), "wf.json")), &out, &errb); err == nil {
			t.Errorf("wfgen %v succeeded, want error", args)
		}
	}
}
