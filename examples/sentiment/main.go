// Sentiment exercises the catalogue's second analytics task (the paper's
// introduction motivates "sentiment analysis against reviews for analyzing
// on-line products"): train the built-in sentiment models on a labeled
// review dataset, deploy them as an ensemble, and score a stream of product
// reviews — then aggregate the predictions the way the motivating database
// application would.
//
// Run with: go run ./examples/sentiment
package main

import (
	"fmt"
	"log"

	"rafiki"
)

func main() {
	sys, err := rafiki.New(rafiki.Options{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	data, err := sys.ImportImages("reviews", map[string]int{
		"negative": 400, "positive": 400,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported %d labeled reviews (%d train / %d validation)\n",
		data.NumTrain+data.NumValid, data.NumTrain, data.NumValid)

	job, err := sys.Train(rafiki.TrainConfig{
		Name:        "sentiment",
		Data:        data.Name,
		Task:        rafiki.SentimentAnalysis,
		OutputShape: []int{2},
		Hyper:       rafiki.HyperConf{MaxTrials: 20, CoStudy: true, Advisor: "bayes"},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		log.Fatal(err)
	}
	st := job.Status()
	fmt.Printf("tuned models %v via Bayesian optimization + CoStudy\n", st.Models)
	for m, acc := range st.BestAccuracy {
		fmt.Printf("  %-14s validation accuracy %.3f\n", m, acc)
	}

	models, err := sys.GetModels(job.ID)
	if err != nil {
		log.Fatal(err)
	}
	inf, err := sys.Deploy(rafiki.DeploymentSpec{Models: models})
	if err != nil {
		log.Fatal(err)
	}

	reviews := []string{
		"absolutely positive experience, the blender is fantastic",
		"broke after two days, totally negative, want a refund",
		"works as advertised",
		"the positive reviews were right, great value",
		"arrived damaged and support was useless, negative",
		"mediocre at best",
	}
	counts := map[string]int{}
	fmt.Println("\nscoring reviews:")
	for _, r := range reviews {
		res, err := sys.Query(inf.ID, []byte(r))
		if err != nil {
			log.Fatal(err)
		}
		counts[res.Label]++
		fmt.Printf("  %-58q -> %-8s (confidence %.2f)\n", r, res.Label, res.Confidence)
	}
	fmt.Printf("\naggregate: %d positive, %d negative — the signal the sales-analysis query would join against\n",
		counts["positive"], counts["negative"])
}
