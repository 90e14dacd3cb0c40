// Quickstart walks the paper's Figure 2 workflow end to end against an
// in-process Rafiki system: import a labeled image dataset, train with
// collaborative hyper-parameter tuning, deploy the trained models as an
// ensemble, and query it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rafiki"
)

func main() {
	sys, err := rafiki.New(rafiki.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// train.py line 1: data = rafiki.import_images('food/')
	data, err := sys.ImportImages("food", map[string]int{
		"pizza": 200, "ramen": 200, "salad": 200, "burger": 200,
		"sushi": 200, "laksa": 200, "satay": 200, "dumpling": 200,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported dataset %q: %d classes, %d train / %d validation images\n",
		data.Name, len(data.Classes), data.NumTrain, data.NumValid)

	// train.py lines 2-4: configure and submit the training job.
	job, err := sys.Train(rafiki.TrainConfig{
		Name:        "train",
		Data:        data.Name,
		Task:        rafiki.ImageClassification,
		InputShape:  []int{3, 256, 256},
		OutputShape: []int{len(data.Classes)},
		Hyper:       rafiki.HyperConf{MaxTrials: 25, CoStudy: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted training job %s\n", job.ID)
	if err := job.Wait(); err != nil {
		log.Fatal(err)
	}
	st := job.Status()
	fmt.Printf("tuning finished: %d trials across models %v\n", st.Finished, st.Models)
	for m, acc := range st.BestAccuracy {
		fmt.Printf("  %-22s best validation accuracy %.3f\n", m, acc)
	}

	// infer.py: models = rafiki.get_models(job_id); rafiki.Inference(models)
	models, err := sys.GetModels(job.ID)
	if err != nil {
		log.Fatal(err)
	}
	inf, err := sys.Deploy(rafiki.DeploymentSpec{Models: models})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed inference job %s with %d models (instant: parameters were already in the parameter server)\n",
		inf.ID, len(models))

	// query.py: ret = rafiki.query(job=job_id, data={'img': img})
	for _, img := range []string{"lunch_ramen_001.jpg", "dinner_pizza_042.jpg", "IMG_2304.jpg"} {
		ret, err := sys.Query(inf.ID, []byte(img))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %-22s -> label=%-10s confidence=%.2f votes=%v\n", img, ret.Label, ret.Confidence, ret.Votes)
	}
}
