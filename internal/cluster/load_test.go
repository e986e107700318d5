package cluster

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestEveryFieldHasAnEntry moves each Config field off its default in
// turn and checks that some entry with a file key reads the change, so a
// field added to Config without a vocabulary entry can neither be set
// nor saved.
func TestEveryFieldHasAnEntry(t *testing.T) {
	def := Default()
	for i := 0; i < reflect.TypeOf(def).NumField(); i++ {
		c := def
		f := reflect.ValueOf(&c).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float()*2 + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("Config.%s has kind %s", reflect.TypeOf(def).Field(i).Name, f.Kind())
		}
		read := false
		for _, p := range params {
			read = read || p.key != "" && p.get(c) != p.get(def)
		}
		if !read {
			t.Errorf("no entry with a file key reads Config.%s", reflect.TypeOf(def).Field(i).Name)
		}
	}
}

// A required field given as zero or a negative number is an error, not
// the default.
func TestLoadRejectsNonPositiveRequired(t *testing.T) {
	for _, key := range []string{"processors", "procsPerNode", "computePerIONode", "mttfYears", "mttrMinutes",
		"ioMttrMinutes", "rebootHours", "severeFailureThreshold", "intervalMinutes", "cyclePeriodMinutes",
		"computeFraction", "bandwidthToIONodeMBps", "bandwidthIOToFSMBps", "checkpointSizeMB"} {
		for _, v := range []string{"0", "-8"} {
			if c, err := Load(strings.NewReader(`{"` + key + `": ` + v + `}`)); err == nil {
				t.Errorf("%s %s loaded as %+v", key, v, c)
			}
		}
	}
}

// Fields whose zero is valid but not the default are saved, so they come
// back as zero.
func TestZeroValuesRoundTrip(t *testing.T) {
	c := Default()
	c.MTTQ, c.BroadcastOverhead, c.IODataPerNode, c.CorrelatedWindow = 0, 0, 0, 0
	var buf bytes.Buffer
	if err := Save(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Errorf("round trip\n got  %+v\n want %+v", back, c)
	}
}

// Each key takes a JSON value of its entry's type only.
func TestLoadChecksValueTypes(t *testing.T) {
	for _, src := range []string{`{"processors": "8192"}`, `{"processors": 8192.5}`, `{"processors": true}`,
		`{"blockingCheckpointWrite": 1}`, `{"coordination": 3}`, `{"mttfYears": "2"}`,
		`{"failureModel": 2}`, `{"failureModel.dist": "weibull"}`, `{"failureModel": {"failureModel.dist": "weibull"}}`,
		`{"nodes": 8}`, `{"": 1}`, `[]`} {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("%s accepted", src)
		}
	}
	c, err := Load(strings.NewReader(`{"processors": null, "mttfYears": 2e0, "failureModel": null}`))
	if want := Default(); err != nil || c.Processors != want.Processors || c.MTTFPerNode != Years(2) {
		t.Errorf("null keys and an exponent: %+v, %v", c, err)
	}
}

// Save renders every numeric entry as a decimal its setter maps back to
// the exact value, whatever rounding the unit conversion does.
func TestSaveNumbersSetBackExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range params {
		if _, ok := p.get(Default()).(float64); !ok || p.key == "" {
			continue
		}
		for i := 0; i < 2000; i++ {
			text := strconv.FormatFloat(rng.ExpFloat64()*100, 'g', 1+rng.Intn(8), 64)
			c := Default()
			if err := p.set(&c, text); err != nil {
				t.Fatal(err)
			}
			v, err := p.encode(c)
			if err != nil {
				t.Fatal(err)
			}
			back := Default()
			if err := p.set(&back, string(v.(json.Number))); err != nil || back != c {
				t.Fatalf("%s=%s saved as %v, which sets back a different value", p.name, text, v)
			}
		}
	}
}

// FuzzLoadConfig feeds arbitrary bytes to Load: nothing may panic, and a
// config Load accepts must survive Save→Load unchanged. The committed
// corpus holds the built-in scenarios' config blocks.
func FuzzLoadConfig(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Save(&buf, c); err != nil {
			t.Fatalf("Save of a loaded config: %v", err)
		}
		back, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Load of Save's output: %v\n%s", err, buf.Bytes())
		}
		if back != c {
			t.Fatalf("Load→Save→Load moved the config\n in   %s\n save %s\n got  %+v\n want %+v", data, buf.Bytes(), back, c)
		}
	})
}
