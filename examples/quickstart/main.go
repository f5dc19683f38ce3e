// Quickstart: generate a small synthetic binary-classification dataset,
// train HarpGBDT with default settings, evaluate on held-out data, and save
// and reload the model.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"harpgbdt"
)

func main() {
	// 1. Data: 20K training rows + 5K test rows of a HIGGS-shaped
	// synthetic task, quantized to 256 histogram bins.
	train, testX, testY, err := harpgbdt.SynthesizeTrainTest(
		harpgbdt.SynthConfig{Spec: harpgbdt.HiggsLike, Rows: 20000, Seed: 1}, 5000, 256)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("train:", harpgbdt.Stats(train))

	// 2. Train: default engine (HarpGBDT, ASYNC TopK-32), 50 trees.
	res, err := harpgbdt.Train(train, harpgbdt.Options{
		Boost: harpgbdt.BoostConfig{Rounds: 50, EvalEvery: 10},
	}, testX, testY)
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range res.History {
		fmt.Printf("  tree %3d: train AUC %.4f  test AUC %.4f\n", pt.Round, pt.TrainAUC, pt.TestAUC)
	}
	fmt.Printf("trained %d trees in %v (%v per tree)\n",
		res.Model.NumTrees(), res.TrainTime, res.AvgTreeTime())

	// 3. Predict on raw feature vectors, through the compiled kernel
	// (Model.PredictDense gives the same scores, several times slower).
	flat, err := harpgbdt.CompileModel(res.Model)
	if err != nil {
		log.Fatal(err)
	}
	preds := make([]float64, testX.N)
	flat.PredictRangeInto(testX, 0, testX.N, preds, flat.NewScratch())
	fmt.Printf("test AUC %.4f, error rate %.4f\n",
		harpgbdt.AUC(preds, testY), harpgbdt.ErrorRate(preds, testY))

	// 4. Save and reload.
	path := filepath.Join(os.TempDir(), "quickstart-model.json")
	if err := res.Model.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	m2, err := harpgbdt.LoadModel(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded model predicts %.4f for the first test row (original %.4f)\n",
		m2.Predict(testX.Row(0)), res.Model.Predict(testX.Row(0)))
}
