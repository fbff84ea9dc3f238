package main

import (
	"encoding/json"
	"fmt"
	"os"

	"ctdf"
)

// writeGraph prints d as Graphviz dot, in its text form or as a listing.
func writeGraph(d *ctdf.Dataflow, format string) error {
	switch format {
	case "dot":
		fmt.Print(d.DOT())
	case "text":
		fmt.Print(d.Text())
	case "listing":
		fmt.Print(d.Listing())
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}

// writeJSON writes v as indented JSON and a newline, to stdout when path
// is "-" and to the file at path otherwise. A value with a JSON method
// (an experiment, which runs to build its artifact) is encoded by it.
func writeJSON(path string, v any) error {
	var js []byte
	var err error
	if j, ok := v.(interface{ JSON() ([]byte, error) }); ok {
		js, err = j.JSON()
	} else {
		js, err = json.MarshalIndent(v, "", "  ")
	}
	if err != nil {
		return err
	}
	js = append(js, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(js)
		return err
	}
	return os.WriteFile(path, js, 0o644)
}
