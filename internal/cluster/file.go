package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Load reads a JSON config file in the keys and units of the parameter
// vocabulary (see params), failure distribution and shape in a nested
// failureModel block. Each key present sets its entry, an absent (or
// null) key keeps the Table 3 default, an unknown key is an error, and
// Validate judges the result.
func Load(r io.Reader) (Config, error) {
	c := Default()
	var doc map[string]json.RawMessage
	err := json.NewDecoder(r).Decode(&doc)
	if err == nil {
		err = c.load("", doc)
	}
	if err != nil {
		return Config{}, fmt.Errorf("cluster: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// load sets c from the keys of one JSON object, the block named by prefix
// ("" at the top level).
func (c *Config) load(prefix string, doc map[string]json.RawMessage) error {
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		key, raw := prefix+k, doc[k]
		i := -1 // a key of this block only: not "", not a dotted path
		if k != "" && !strings.Contains(k, ".") {
			i = slices.IndexFunc(params, func(p param) bool { return p.key == key })
		}
		var err error
		switch {
		case i >= 0 && string(raw) == "null": // keeps the default
		case i >= 0:
			err = params[i].decode(c, raw)
		case prefix == "" && slices.ContainsFunc(params, func(p param) bool { return strings.HasPrefix(p.key, key+".") }):
			var block map[string]json.RawMessage
			if err = json.Unmarshal(raw, &block); err == nil {
				err = c.load(key+".", block)
			}
		default:
			return fmt.Errorf("unknown config key %q", key)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	}
	return nil
}

// decode sets p from its JSON value, which must have the entry's type: a
// number for an int or float64 entry, a string or a bool for the others.
func (p param) decode(c *Config, raw json.RawMessage) error {
	var v any = new(float64)
	switch p.get(Default()).(type) {
	case string:
		v = new(string)
	case bool:
		v = new(bool)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return err
	}
	text := string(raw)
	if s, ok := v.(*string); ok {
		text = *s
	}
	return p.set(c, text)
}

// Save writes c as indented JSON in Load's schema. An entry is omitted
// only when both its value and its default are zero, so every value Load
// would not default to is written.
func Save(w io.Writer, c Config) error {
	def, doc := Default(), map[string]any{}
	for _, p := range params {
		if p.key == "" {
			continue
		}
		if zero := p.get(Config{}); p.get(c) == zero && p.get(def) == zero {
			continue
		}
		v, err := p.encode(c)
		if err != nil {
			return fmt.Errorf("cluster: %s: %w", p.key, err)
		}
		obj, key := doc, p.key
		if block, k, ok := strings.Cut(p.key, "."); ok {
			if doc[block] == nil {
				doc[block] = map[string]any{}
			}
			obj, key = doc[block].(map[string]any), k
		}
		obj[key] = v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// encode returns p's value in c for Save. A number is the shortest
// decimal that p's setter maps back to c's own value, trying the
// neighbouring doubles where the unit conversion rounds, so Load(Save(c))
// is c bit for bit wherever some decimal reaches it.
func (p param) encode(c Config) (any, error) {
	f, ok := p.get(c).(float64)
	switch {
	case !ok:
		return p.get(c), nil
	case math.IsInf(f, 0) || math.IsNaN(f):
		return nil, fmt.Errorf("%v has no JSON number", f)
	}
	exact := func(t string) bool { d := c; return p.set(&d, t) == nil && d == c }
	for prec := 1; prec <= 17; prec++ {
		v, _ := strconv.ParseFloat(strconv.FormatFloat(f, 'g', prec, 64), 64)
		if t := strconv.FormatFloat(v, 'g', -1, 64); exact(t) {
			return json.Number(t), nil
		}
	}
	for _, v := range []float64{math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1))} {
		if t := strconv.FormatFloat(v, 'g', -1, 64); exact(t) {
			return json.Number(t), nil
		}
	}
	return json.Number(strconv.FormatFloat(f, 'g', -1, 64)), nil
}
