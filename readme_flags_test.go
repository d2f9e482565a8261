package repro

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeCommandLinesUseDefinedFlags keeps README's example command
// lines honest: every `go run ./cmd/<name> …` line inside a fenced
// block must name a command that exists and pass it only flags that
// command defines (its own `-h` listing is the authority). A retired
// flag or command left behind in an example fails here instead of in a
// reader's terminal.
func TestReadmeCommandLinesUseDefinedFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs `go run ./cmd/<name> -h` per command; skipped with -short")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// Fenced lines only, with backslash continuations joined and
	// trailing comments dropped.
	var lines []string
	fenced, cont := false, false
	for _, l := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced, cont = !fenced, false
			continue
		}
		if !fenced {
			continue
		}
		if i := strings.Index(l, "#"); i >= 0 {
			l = l[:i]
		}
		l = strings.TrimSpace(l)
		more := strings.HasSuffix(l, "\\")
		l = strings.TrimSuffix(l, "\\")
		if cont {
			lines[len(lines)-1] += " " + l
		} else {
			lines = append(lines, l)
		}
		cont = more
	}

	helpFlag := regexp.MustCompile(`(?m)^\s+-([\w-]+)`)
	defined := map[string]map[string]bool{} // command -> flag set
	checked := 0
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) < 3 || f[0] != "go" || f[1] != "run" || !strings.HasPrefix(f[2], "./cmd/") {
			continue
		}
		cmd := f[2]
		if defined[cmd] == nil {
			if _, err := os.Stat(cmd); err != nil {
				t.Errorf("README runs %s, which does not exist: %q", cmd, l)
				continue
			}
			// -h prints the flag listing on stderr.
			out, _ := exec.Command("go", "run", cmd, "-h").CombinedOutput()
			defined[cmd] = map[string]bool{}
			for _, m := range helpFlag.FindAllStringSubmatch(string(out), -1) {
				defined[cmd][m[1]] = true
			}
			if len(defined[cmd]) == 0 {
				t.Fatalf("`go run %s -h` listed no flags:\n%s", cmd, out)
			}
		}
		for _, arg := range f[3:] {
			if arg == "|" {
				break // the rest is another program's command line
			}
			if !strings.HasPrefix(arg, "-") {
				continue
			}
			name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
			checked++
			if !defined[cmd][name] {
				t.Errorf("README passes -%s to %s, which defines no such flag: %q", name, cmd, l)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no flags on README's `go run ./cmd/…` lines; the check is vacuous")
	}
}
