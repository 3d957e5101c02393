#include "workloads/workload.hh"

#include "obs/trace_span.hh"

namespace membw {

WorkloadRun
Workload::run(const WorkloadParams &params) const
{
    TraceRecorder recorder;
    generate(recorder, params);
    WorkloadRun result;
    result.annotations = recorder.takeAnnotations();
    result.trace = recorder.takeTrace();
    return result;
}

Trace
Workload::trace(const WorkloadParams &params) const
{
    MEMBW_SPAN_D("trace.generate", name());
    TraceRecorder recorder;
    recorder.skipAnnotations();
    generate(recorder, params);
    return recorder.takeTrace();
}

} // namespace membw
