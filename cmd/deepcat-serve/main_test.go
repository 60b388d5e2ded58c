package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"deepcat/internal/service"
)

// flagToken matches a `-flag` mention: a dash after a space, backtick or
// parenthesis (or at line start), then a lowercase hyphenated name of at
// least two characters. Single-letter tool options (curl -s, -d) and
// `go test` flags are not deepcat flags and are skipped below.
var flagToken = regexp.MustCompile("(?:^|[\\s`(])-([a-z][a-z0-9]+(?:-[a-z0-9]+)*)")

// registration matches a flag registration in a Go source file and
// captures its name.
var registration = regexp.MustCompile(`\b(?:flag|fs)\.[A-Z][A-Za-z0-9]*\(\s*(?:&[\w.]+,\s*)?"([a-z0-9-]+)"`)

// TestFlagsDocumented keeps README.md and the binary's flags in step:
// every flag deepcat-serve registers is described there, and every flag
// README names is registered by deepcat-serve or by another binary, so a
// deleted daemon flag cannot linger in the docs.
func TestFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.Contains(line, "go test") {
			continue
		}
		for _, m := range flagToken.FindAllStringSubmatch(line, -1) {
			named[m[1]] = true
		}
	}

	var cfg service.Config
	own := map[string]bool{}
	flags(&cfg).VisitAll(func(f *flag.Flag) { own[f.Name] = true })
	for name := range own {
		if !named[name] {
			t.Errorf("flag -%s is not described in README.md", name)
		}
	}

	others := map[string]bool{}
	srcs, _ := filepath.Glob("../*/*.go")
	cli, _ := filepath.Glob("../../internal/cli/*.go")
	for _, path := range append(srcs, cli...) {
		if filepath.Dir(path) == "../deepcat-serve" {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range registration.FindAllSubmatch(src, -1) {
			others[string(m[1])] = true
		}
	}
	for name := range named {
		if !own[name] && !others[name] {
			t.Errorf("README.md names -%s, which deepcat-serve does not register (nor does any other binary)", name)
		}
	}
}
