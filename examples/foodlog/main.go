// Foodlog reproduces the paper's Section 8 usability case study: a database
// developer analyzes a food-logging table with a deep-learning UDF that
// calls Rafiki's serving Web API.
//
// The example boots a full Rafiki REST server, trains and deploys a food
// classifier, loads the foodlog table into the mini SQL engine, registers a
// food_name() UDF backed by HTTP queries against the inference job, and runs
// the paper's analytics query:
//
//	SELECT food_name(image_path) AS name, COUNT(*)
//	FROM foodlog WHERE age > 52 GROUP BY name;
//
// Run with: go run ./examples/foodlog
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"rafiki"
	"rafiki/internal/rest"
	"rafiki/internal/sqlmini"
)

func main() {
	// Deep-learning expert side: stand up Rafiki, train, deploy.
	sys, err := rafiki.New(rafiki.Options{Seed: 8})
	if err != nil {
		log.Fatal(err)
	}
	server := httptest.NewServer(rest.NewServer(sys))
	defer server.Close()
	client := rest.NewClient(server.URL)

	if _, err := client.ImportImages("food", map[string]int{
		"pizza": 150, "ramen": 150, "salad": 150, "laksa": 150,
	}); err != nil {
		log.Fatal(err)
	}
	trainID, err := client.Train(rest.TrainRequest{
		Name: "food-train", Data: "food", Task: "ImageClassification",
		InputShape: []int{3, 256, 256}, OutputShape: []int{4},
		Hyper: rafiki.HyperConf{MaxTrials: 15, CoStudy: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := client.WaitTrain(context.Background(), trainID, 0, 10000); err != nil {
		log.Fatal(err)
	}
	inferID, err := client.Deploy(rest.InferenceRequest{TrainJobID: trainID})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained job %s, deployed inference job %s at %s\n", trainID, inferID, server.URL)

	// Database side: the Section 8 schema and data.
	db := sqlmini.NewDB()
	mustExec(db, `CREATE TABLE foodlog (
		user_id integer,
		age integer NOT NULL,
		location text NOT NULL,
		time text NOT NULL,
		image_path text NOT NULL,
		PRIMARY KEY (user_id, time)
	)`)
	rows := []struct {
		user, age int
		loc, img  string
	}{
		{1, 55, "clementi", "meal_pizza_0001.jpg"},
		{2, 61, "jurong", "meal_laksa_0007.jpg"},
		{3, 29, "bugis", "meal_salad_0003.jpg"},
		{4, 67, "clementi", "meal_pizza_0009.jpg"},
		{5, 58, "queenstown", "meal_ramen_0002.jpg"},
		{6, 33, "bugis", "meal_ramen_0004.jpg"},
		{7, 71, "jurong", "meal_laksa_0011.jpg"},
		{8, 54, "clementi", "meal_laksa_0005.jpg"},
	}
	for _, r := range rows {
		mustExec(db, fmt.Sprintf(
			"INSERT INTO foodlog (user_id, age, location, time, image_path) VALUES (%d, %d, '%s', '12:00', '%s')",
			r.user, r.age, r.loc, r.img))
	}

	// The UDF calls the serving Web API — "the food_name() function calls
	// the Web API of the serving application in Rafiki".
	udfCalls := 0
	err = db.RegisterUDF("food_name", func(args []sqlmini.Value) (sqlmini.Value, error) {
		if len(args) != 1 {
			return sqlmini.Null, fmt.Errorf("food_name wants one argument")
		}
		udfCalls++
		res, err := client.Query(inferID, args[0].Text)
		if err != nil {
			return sqlmini.Null, err
		}
		return sqlmini.Text(res.Label), nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// The paper's analytics query.
	res, err := db.Exec(`
		SELECT food_name(image_path) AS name, count(*)
		FROM foodlog
		WHERE age > 52
		GROUP BY name`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSELECT food_name(image_path) AS name, count(*) FROM foodlog WHERE age > 52 GROUP BY name;")
	fmt.Println(res)
	fmt.Printf("the UDF hit the serving API %d times — only for the %d rows with age > 52\n", udfCalls, 6)
}

func mustExec(db *sqlmini.DB, sql string) {
	if _, err := db.Exec(sql); err != nil {
		log.Fatalf("%s: %v", sql, err)
	}
}
