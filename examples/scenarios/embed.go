// Package scenarios holds the curated scenario files. chaos.yaml,
// ha.yaml and aa.yaml are the builtins `rmbench -exp chaos`, `-exp ha`
// and `-exp aa` run.
package scenarios

import "embed"

// FS holds every *.yaml file of this directory.
//
//go:embed *.yaml
var FS embed.FS
