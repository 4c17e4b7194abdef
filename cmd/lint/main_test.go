package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const pairingFixture = "../../internal/analysis/testdata/src/pairing"

func TestFindingsExitOne(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{pairingFixture}, &out, &errOut)
	if code != 1 {
		t.Fatalf("fixture run exited %d, want 1: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "[pairing]") {
		t.Errorf("output missing [pairing] findings:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "finding(s)") {
		t.Errorf("output missing summary line:\n%s", out.String())
	}
}

func TestLoadErrorExitTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &out, &errOut); code != 2 {
		t.Fatalf("bad dir exited %d, want 2", code)
	}
}

func TestJSONFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-json", pairingFixture}, &out, &errOut)
	if code != 1 {
		t.Fatalf("-json fixture run exited %d, want 1: %s", code, errOut.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json output empty despite exit 1")
	}
	for _, f := range findings {
		if f.Analyzer != "pairing" || f.Line == 0 || f.File == "" {
			t.Errorf("malformed JSON finding: %+v", f)
		}
	}
}
