package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"reflect"

	"repro/internal/explain"
)

// sameJSON checks that a response body decodes into the same value as the
// direct call's result: both sides are re-encoded through a fresh value of
// the direct result's type, so nil and empty collections compare as the
// server would have encoded them.
func sameJSON(body []byte, direct any) error {
	want, err := json.Marshal(direct)
	if err != nil {
		return err
	}
	got := reflect.New(reflect.TypeOf(direct))
	if err := json.Unmarshal(body, got.Interface()); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	gotJSON, err := json.Marshal(got.Elem().Interface())
	if err != nil {
		return err
	}
	if !bytes.Equal(gotJSON, want) {
		return fmt.Errorf("response %.200s differs from the direct call %.200s", gotJSON, want)
	}
	return nil
}

// equalStrings compares two string slices.
func equalStrings(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("item %d is %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// scanRows sums the actual rows of a plan's leaves: the rows or
// candidates the executor streamed out of its access paths.
func scanRows(n *explain.Node) int {
	if n == nil {
		return 0
	}
	if len(n.Children) == 0 {
		return n.Act
	}
	total := 0
	for _, c := range n.Children {
		total += scanRows(c)
	}
	return total
}

// getTarget renders a GET target with query parameters.
func getTarget(path string, params url.Values) string {
	return path + "?" + params.Encode()
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}
