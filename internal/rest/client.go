package rest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"rafiki"
)

// Client is a thin HTTP client over the REST API — the analogue of the
// paper's Python SDK talking to a remote Rafiki deployment.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a client for the given base URL (e.g.
// "http://127.0.0.1:8080").
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

func (c *Client) do(method, path string, body, out any) error {
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("rest client: encode: %w", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("rest client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("rest client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err == nil && eb.Error != "" {
			return fmt.Errorf("rest client: %s %s: %s", method, path, eb.Error)
		}
		return fmt.Errorf("rest client: %s %s: status %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("rest client: decode: %w", err)
	}
	return nil
}

// Tasks fetches the task catalogue.
func (c *Client) Tasks() (map[string][]string, error) {
	var out map[string][]string
	err := c.do(http.MethodGet, "/api/v1/tasks", nil, &out)
	return out, err
}

// ImportImages imports a dataset.
func (c *Client) ImportImages(name string, folders map[string]int) (*rafiki.Dataset, error) {
	var out rafiki.Dataset
	err := c.do(http.MethodPost, "/api/v1/datasets", ImportRequest{Name: name, Folders: folders}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Train submits a training job and returns its ID.
func (c *Client) Train(req TrainRequest) (string, error) {
	var out TrainResponse
	if err := c.do(http.MethodPost, "/api/v1/train", req, &out); err != nil {
		return "", err
	}
	return out.JobID, nil
}

// TrainStatus fetches job progress.
func (c *Client) TrainStatus(jobID string) (*rafiki.TrainStatus, error) {
	var out rafiki.TrainStatus
	if err := c.do(http.MethodGet, "/api/v1/train/"+jobID, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitTrain polls until the job reports done, the context is cancelled, or
// the attempt budget runs out. Cancellation is checked between polls, so a
// caller's deadline stops the busy-poll immediately instead of burning the
// remaining attempts.
func (c *Client) WaitTrain(ctx context.Context, jobID string, poll time.Duration, attempts int) (*rafiki.TrainStatus, error) {
	for i := 0; i < attempts; i++ {
		st, err := c.TrainStatus(jobID)
		if err != nil {
			return nil, err
		}
		if st.Done {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("rest client: waiting for training job %s: %w", jobID, ctx.Err())
		case <-time.After(poll):
		}
	}
	return nil, fmt.Errorf("rest client: training job %s did not finish in time", jobID)
}

// GetModels fetches the trained model instances of a finished job.
func (c *Client) GetModels(jobID string) ([]rafiki.ModelInstance, error) {
	var out []rafiki.ModelInstance
	if err := c.do(http.MethodGet, "/api/v1/train/"+jobID+"/models", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Deploy deploys models for serving with full control over the deployment
// spec (explicit models, policy, SLO, queue cap, replica bounds, autoscale)
// and returns the new deployment's ID.
func (c *Client) Deploy(req InferenceRequest) (string, error) {
	desc, err := c.DeployDescribed(req)
	if err != nil {
		return "", err
	}
	return desc.ID, nil
}

// DeployDescribed is Deploy returning the full created resource (spec as
// defaulted by the server, plus initial status).
func (c *Client) DeployDescribed(req InferenceRequest) (*rafiki.InferenceDescription, error) {
	var out rafiki.InferenceDescription
	if err := c.do(http.MethodPost, "/api/v1/inference", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ListInference lists every live deployment (spec + status each).
func (c *Client) ListInference() ([]rafiki.InferenceDescription, error) {
	var out []rafiki.InferenceDescription
	if err := c.do(http.MethodGet, "/api/v1/inference", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// DescribeInference fetches one deployment's spec and observed status.
func (c *Client) DescribeInference(inferJobID string) (*rafiki.InferenceDescription, error) {
	var out rafiki.InferenceDescription
	if err := c.do(http.MethodGet, "/api/v1/inference/"+inferJobID, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reconcile PUTs a changed spec against a live deployment: the server
// validates it in full, then applies the differences (policy swap, SLO,
// queue cap, replica-bound clamp, autoscale toggle) without dropping queued
// requests, and returns the resulting resource.
func (c *Client) Reconcile(inferJobID string, req InferenceRequest) (*rafiki.InferenceDescription, error) {
	var out rafiki.InferenceDescription
	if err := c.do(http.MethodPut, "/api/v1/inference/"+inferJobID, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ListDatasets lists the imported datasets.
func (c *Client) ListDatasets() ([]rafiki.Dataset, error) {
	var out []rafiki.Dataset
	if err := c.do(http.MethodGet, "/api/v1/datasets", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// ListTrainJobs lists every training job's status.
func (c *Client) ListTrainJobs() ([]rafiki.TrainStatus, error) {
	var out []rafiki.TrainStatus
	if err := c.do(http.MethodGet, "/api/v1/train", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Scale resizes a deployment's replica pools (every model when model is "",
// else the named one) and returns the per-model counts after the resize.
func (c *Client) Scale(inferJobID, model string, replicas int) (map[string]int, error) {
	var out ScaleResponse
	if err := c.do(http.MethodPost, "/api/v1/inference/"+inferJobID+"/scale",
		ScaleRequest{Model: model, Replicas: replicas}, &out); err != nil {
		return nil, err
	}
	return out.Replicas, nil
}

// StopInference tears down a deployment and releases its containers.
func (c *Client) StopInference(inferJobID string) error {
	return c.do(http.MethodDelete, "/api/v1/inference/"+inferJobID, nil, nil)
}

// InferenceStats fetches a deployed job's serving metrics.
func (c *Client) InferenceStats(inferJobID string) (*rafiki.InferenceStats, error) {
	var out rafiki.InferenceStats
	if err := c.do(http.MethodGet, "/api/v1/inference/"+inferJobID+"/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Query classifies a payload against a deployed job.
func (c *Client) Query(inferJobID, img string) (*rafiki.QueryResult, error) {
	var out rafiki.QueryResult
	if err := c.do(http.MethodPost, "/api/v1/query/"+inferJobID, QueryRequest{Image: img}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
