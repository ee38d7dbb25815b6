#include "net/serve_handler.hh"

#include "service/service.hh"

namespace lll::net
{

HandlerResult
ServeHandler::operator()(const std::string &line, uint64_t req_no) const
{
    HandlerResult out;
    out.telemetry = std::make_unique<obs::MetricRegistry>();

    service::RunService::Params sp;
    // Concurrency lives in the listener's worker pool; at jobs 1 the
    // Executor runs the request on this worker, spawning no thread.
    sp.jobs = 1;
    sp.cache = params_.cache;
    sp.registry = out.telemetry.get();
    service::RunService svc(sp);

    std::vector<service::RunResponse> responses =
        svc.serveLines({line}, req_no);
    if (responses.size() != 1) {
        // The frame decoder never emits blank frames, so this is a
        // service invariant violation, not a client error.
        service::RunResponse resp;
        resp.id = "#" + std::to_string(req_no);
        resp.status = util::Status::error(
            util::ErrorCode::Internal,
            "service returned %zu responses for one request line",
            responses.size());
        out.line = service::renderRunResponse(resp);
        out.failed = true;
        return out;
    }
    out.line = service::renderRunResponse(responses.front(),
                                          params_.requestTelemetry);
    out.failed = !responses.front().status.ok();
    return out;
}

} // namespace lll::net
