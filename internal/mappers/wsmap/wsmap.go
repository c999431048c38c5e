// Package wsmap implements uMiddle's web-services mapper: it polls the
// service indexes of configured web-service hosts and imports a generic
// translator per service. A delivery on the translator's request-in
// port carries an XML request document; the driver unwraps it, performs
// the HTTP invocation, and the XML response is emitted on response-out.
package wsmap

import (
	"context"
	"encoding/xml"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/netemu"
	"repro/internal/platform/webservice"
	"repro/internal/usdl"
)

// Platform is the platform name this mapper bridges.
const Platform = "webservice"

// Options configures the mapper.
type Options struct {
	// BaseURLs lists the web-service hosts to watch
	// ("http://ws-host:7400").
	BaseURLs []string
	// PollInterval is the index poll cadence (default 1s).
	PollInterval time.Duration
	// Recorder receives service-level bridging samples.
	Recorder *mapper.Recorder
	// Logger receives diagnostics; nil disables logging.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.PollInterval <= 0 {
		o.PollInterval = time.Second
	}
	return o
}

// Mapper is the web-services platform mapper.
type Mapper struct {
	opts   Options
	client *webservice.Client
	r      *mapper.Reconciler[service] // keyed by baseURL+"/"+name
}

// service is one entry of a host's service index.
type service struct {
	baseURL string
	decl    webservice.ServiceDecl
}

var _ mapper.Mapper = (*Mapper)(nil)

// New creates a web-services mapper on the given host.
func New(host *netemu.Host, opts Options) *Mapper {
	m := &Mapper{opts: opts.withDefaults(), client: webservice.NewClient(host)}
	m.r = mapper.NewReconciler(mapper.Adapter[service]{
		Platform:      Platform,
		IDPrefix:      "svc",
		Interval:      m.opts.PollInterval,
		MissThreshold: 1,
		Poll:          m.poll,
		Describe:      m.describe,
		Recorder:      m.opts.Recorder,
		Logger:        m.opts.Logger,
	})
	return m
}

// Platform implements mapper.Mapper.
func (m *Mapper) Platform() string { return Platform }

// Start implements mapper.Mapper.
func (m *Mapper) Start(ctx context.Context, imp mapper.Importer) error {
	return m.r.Start(ctx, imp)
}

// Close implements mapper.Mapper.
func (m *Mapper) Close() error {
	m.r.Close()
	return nil
}

// MappedCount returns the number of currently mapped services.
func (m *Mapper) MappedCount() int { return m.r.MappedCount() }

// poll reads every host's service index. A host whose index fails fails
// the pass, so its services are not unmapped while it is unreachable.
func (m *Mapper) poll(ctx context.Context) ([]mapper.Sighting[service], error) {
	var out []mapper.Sighting[service]
	var err error
	for _, baseURL := range m.opts.BaseURLs {
		decls, indexErr := m.client.Index(ctx, baseURL)
		if indexErr != nil {
			err = fmt.Errorf("wsmap: index %s: %w", baseURL, indexErr)
			continue
		}
		for _, d := range decls {
			out = append(out, mapper.Sighting[service]{Key: baseURL + "/" + d.Name, Native: service{baseURL, d}})
		}
	}
	return out, err
}

// describe builds the driver that unwraps an XML request document,
// performs the HTTP invocation and wraps the results as a response.
func (m *Mapper) describe(_ context.Context, _ string, s service) (mapper.Desc, error) {
	client, baseURL, name := m.client, s.baseURL, s.decl.Name
	driver := usdl.DriverFunc(func(ctx context.Context, action string, args map[string]string, payload []byte) ([]byte, error) {
		if action != "invoke" {
			return nil, fmt.Errorf("wsmap: unknown action %q", action)
		}
		body := args["Body"]
		if body == "" {
			body = string(payload)
		}
		var req webservice.Request
		if err := xml.Unmarshal([]byte(body), &req); err != nil {
			return nil, fmt.Errorf("wsmap: bad request document: %w", err)
		}
		params := make(map[string]string, len(req.Params))
		for _, p := range req.Params {
			params[p.Name] = p.Value
		}
		out, err := client.Invoke(ctx, baseURL, name, req.Method, params)
		if err != nil {
			return nil, err
		}
		resp := webservice.Response{}
		for k, v := range out {
			resp.Results = append(resp.Results, webservice.Param{Name: k, Value: v})
		}
		return xml.Marshal(resp)
	})
	return mapper.Desc{
		Profile: core.Profile{
			Name:       name,
			DeviceType: s.decl.Interface,
			Attributes: map[string]string{"base": baseURL},
		},
		Driver: driver,
	}, nil
}
