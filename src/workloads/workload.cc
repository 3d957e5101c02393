#include "workloads/workload.hh"

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
    TraceRecorder recorder;
    recorder.skipAnnotations();
    generate(recorder, params);
    return recorder.takeTrace();
}

} // namespace membw
