package main

import (
	"flag"
	"strings"
	"testing"

	"synran"
	"synran/internal/cli"
)

func TestNameFlagsListRegistry(t *testing.T) {
	fs := flag.NewFlagSet("consensus-sim", flag.ContinueOnError)
	nameFlags(fs, &cli.SimOptions{})
	for flagName, names := range map[string][]string{
		"protocol":  synran.Protocols(),
		"adversary": synran.Adversaries(),
	} {
		usage := fs.Lookup(flagName).Usage
		listed := map[string]bool{}
		for _, name := range strings.Split(strings.TrimPrefix(usage, flagName+": "), "|") {
			listed[name] = true
		}
		for _, name := range names {
			if !listed[name] {
				t.Errorf("-%s help %q omits registered name %q", flagName, usage, name)
			}
		}
	}
}
