// Package boost implements the gradient boosting driver: the round loop
// that turns any tree builder (HarpGBDT or a baseline) into a trained
// ensemble, with shrinkage, margin bookkeeping via leaf assignments,
// convergence recording (metric versus round and versus wall time, for
// Figs. 8, 9, 14 and 16), and a serializable model.
package boost

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"harpgbdt/internal/dataset"
	"harpgbdt/internal/objective"
	"harpgbdt/internal/safeio"
	"harpgbdt/internal/tree"
)

// Model is a trained GBDT ensemble. Leaf weights already include the
// learning rate, so a prediction is base score plus the sum of leaf values.
type Model struct {
	Objective    string       `json:"objective"`
	BaseScore    float64      `json:"base_score"`
	LearningRate float64      `json:"learning_rate"`
	NumFeatures  int          `json:"num_features"`
	Trees        []*tree.Tree `json:"trees"`
}

// NumTrees returns the ensemble size.
func (m *Model) NumTrees() int { return len(m.Trees) }

// PredictMargin returns the raw margin for one row of raw feature values
// (NaN = missing), using at most the first k trees (k <= 0 uses all).
func (m *Model) PredictMargin(values []float32, k int) float64 {
	if k <= 0 || k > len(m.Trees) {
		k = len(m.Trees)
	}
	s := m.BaseScore
	for _, t := range m.Trees[:k] {
		s += t.PredictRowRaw(values)
	}
	return s
}

// Predict returns the transformed prediction (probability for logistic) for
// one row.
func (m *Model) Predict(values []float32) float64 {
	obj, err := objective.New(m.Objective)
	if err != nil {
		return m.PredictMargin(values, 0)
	}
	return obj.Transform(m.PredictMargin(values, 0))
}

// PredictDense returns transformed predictions for every row of the matrix.
func (m *Model) PredictDense(d *dataset.Dense) ([]float64, error) {
	if d.M != m.NumFeatures {
		return nil, fmt.Errorf("boost: model expects %d features, matrix has %d", m.NumFeatures, d.M)
	}
	obj, err := objective.New(m.Objective)
	if err != nil {
		return nil, err
	}
	out := make([]float64, d.N)
	for i := 0; i < d.N; i++ {
		out[i] = obj.Transform(m.PredictMargin(d.Row(i), 0))
	}
	return out, nil
}

// WriteJSON serializes the model.
func (m *Model) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(m)
}

// ReadJSON deserializes a model written by WriteJSON and validates its
// structure, so a tampered or truncated model fails here with a clear
// error rather than panicking later inside Predict.
func ReadJSON(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Validate checks the structural invariants prediction relies on: every
// tree non-empty, node ids equal to their index, child/parent links in
// range and acyclic (children always point forward), split features
// within the model's feature count, and finite leaf weights.
func (m *Model) Validate() error {
	if m.NumFeatures < 0 {
		return fmt.Errorf("boost: model has negative feature count %d", m.NumFeatures)
	}
	if math.IsNaN(m.BaseScore) || math.IsInf(m.BaseScore, 0) {
		return fmt.Errorf("boost: model base score %v not finite", m.BaseScore)
	}
	for ti, t := range m.Trees {
		if t == nil || len(t.Nodes) == 0 {
			return fmt.Errorf("boost: model tree %d empty", ti)
		}
		for i := range t.Nodes {
			n := &t.Nodes[i]
			if n.ID != int32(i) {
				return fmt.Errorf("boost: model tree %d node %d has id %d", ti, i, n.ID)
			}
			if (n.Left == tree.NoNode) != (n.Right == tree.NoNode) {
				return fmt.Errorf("boost: model tree %d node %d has exactly one child", ti, i)
			}
			if n.IsLeaf() {
				if math.IsNaN(n.Weight) || math.IsInf(n.Weight, 0) {
					return fmt.Errorf("boost: model tree %d leaf %d weight %v not finite", ti, i, n.Weight)
				}
				continue
			}
			// Children strictly after the parent: in-range and acyclic.
			for _, c := range []int32{n.Left, n.Right} {
				if c <= int32(i) || int(c) >= len(t.Nodes) {
					return fmt.Errorf("boost: model tree %d node %d child %d out of range [%d, %d)", ti, i, c, i+1, len(t.Nodes))
				}
			}
			if n.Feature < 0 || (m.NumFeatures > 0 && int(n.Feature) >= m.NumFeatures) {
				return fmt.Errorf("boost: model tree %d node %d split feature %d out of range [0, %d)", ti, i, n.Feature, m.NumFeatures)
			}
		}
	}
	return nil
}

// SaveFile writes the model to a file atomically (temp file + fsync +
// rename) with a CRC32 integrity footer, so a crash mid-save cannot
// corrupt a previously saved model and torn writes are detected on load.
func (m *Model) SaveFile(path string) error {
	return safeio.WriteFile(path, m.WriteJSON)
}

// LoadFile reads a model from a file, verifying the integrity footer when
// present (plain JSON files saved by older versions still load).
func LoadFile(path string) (*Model, error) {
	payload, _, err := safeio.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadJSON(bytes.NewReader(payload))
}
