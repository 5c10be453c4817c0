"""Hand-built inputs for tests that drive the kernels directly."""

from array import array

from ponedge._kernel import INPUT_TYPECODES, STRATEGY_TRADE_OFF, KernelInputs


def kernel_inputs(*, routes=(((),),), **fields) -> KernelInputs:
    """One device and one idle single-core node, reached without a link.

    Any KernelInputs column or constant can be overridden, columns as lists.
    `routes[device][slot]` lists the hop codes of that device's route to that
    candidate slot; flattened, it is route device * len(candidate_nodes) + slot
    of the KernelInputs columns. Every arrival comes from device 0 unless
    `arrival_device` is given.
    """
    routes = [hops for slots in routes for hops in slots]
    starts = [0]
    for hops in routes:
        starts.append(starts[-1] + len(hops))
    values = dict(
        mips_per_core=[1e9], cores=[1], weight=[1.0], ram_capacity=[32_768.0],
        storage_capacity=[1_048_576.0], candidate_nodes=[0],
        link_bandwidth=[], link_hop_delay=[], route_start=starts,
        route_hops=[hop for hops in routes for hop in hops],
        arrival_time=[], arrival_device=None, length_mi=1.0, request_bits=0.0,
        result_bits=0.0, task_ram_mb=1.0, task_storage_mb=100.0,
        strategy=STRATEGY_TRADE_OFF, control_delay_s=0.0, duration_s=1e3,
        collect_trace=False,
    )
    values.update(fields)
    if values["arrival_device"] is None:
        values["arrival_device"] = [0] * len(values["arrival_time"])
    for name, code in INPUT_TYPECODES.items():
        values[name] = array(code, values[name])
    return KernelInputs(**values)


def candidate_inputs(mips, **fields) -> KernelInputs:
    """Idle single-core nodes with the given MIPS, every one a candidate in index
    order and reached from device 0 without a link; fields as for kernel_inputs."""
    n = len(mips)
    values = dict(mips_per_core=list(mips), cores=[1] * n, weight=[1.0] * n,
                  ram_capacity=[32_768.0] * n, storage_capacity=[1_048_576.0] * n,
                  candidate_nodes=list(range(n)), routes=[[()] * n])
    values.update(fields)
    return kernel_inputs(**values)
