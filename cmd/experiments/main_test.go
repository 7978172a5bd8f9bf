package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestSelectIDs(t *testing.T) {
	var all []string
	for _, e := range experiments.All() {
		all = append(all, e.ID)
	}
	cases := []struct {
		list    string
		want    []string
		wantErr string // substring of the error; "" = no error
	}{
		{list: "", want: all},
		{list: "E4", want: []string{"E4"}},
		{list: "E5,E4", want: []string{"E5", "E4"}},
		{list: " E4 , E5 ", want: []string{"E4", "E5"}},
		{list: "E4,E99", wantErr: `"E99"`},
	}
	for _, c := range cases {
		run, err := selectIDs(c.list)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("selectIDs(%q) error = %v, want one naming %s", c.list, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("selectIDs(%q): %v", c.list, err)
			continue
		}
		var got []string
		for _, e := range run {
			got = append(got, e.ID)
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("selectIDs(%q) = %v, want %v", c.list, got, c.want)
		}
	}
}
