package main

import (
	"debug/buildinfo"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// environment fingerprints the machine and the build. It is printed beside
// the metrics and stored in the trace file, never inside hashed or compared
// bytes.
func environment(root, daemon string) map[string]string {
	env := map[string]string{
		"cpu":        cpuModel(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"daemon_pgo": "no daemon",
	}
	// The driver's checkout is not a git repository; a developer's is.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if daemon != "" {
		env["daemon_pgo"] = "off"
		if info, err := buildinfo.ReadFile(daemon); err == nil {
			for _, s := range info.Settings {
				if s.Key == "-pgo" && s.Value != "" {
					env["daemon_pgo"] = strings.TrimPrefix(s.Value, root+"/")
				}
			}
		}
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func envLine(env map[string]string) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + env[k]
	}
	return strings.Join(parts, " ")
}
