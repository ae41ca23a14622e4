"""Tests for kernel image building, boot, and the syscall surface."""

import os
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.config import KernelConfig
from repro.errors import KirError
from repro.kernel import KernelImage, Kernel
from repro.kernel.kernel import IMAGE_CACHE_SIZE, kernel_image
from repro.kernel.bugs import all_bugs
from repro.fuzzer.syzlang import validate_against_kernel
from repro.fuzzer.templates import templates


@pytest.fixture(scope="module")
def image():
    return KernelImage(KernelConfig())


@pytest.fixture()
def kernel(image):
    return Kernel(image)


class TestImage:
    def test_builds_and_links(self, image):
        assert len(image.program.functions) > 80
        assert len(image.syscalls) >= 60

    def test_globals_disjoint(self, image):
        # Globals must not overlap (they are address-assigned by the image).
        spans = []
        for subsystem in image.subsystems:
            for name, size in subsystem.globals.items():
                base = image.globals[name]
                spans.append((base, base + size, name))
        spans.sort()
        for (s1, e1, n1), (s2, e2, n2) in zip(spans, spans[1:]):
            assert e1 <= s2, f"{n1} overlaps {n2}"

    def test_every_function_has_an_owner(self, image):
        for name in image.program.functions:
            assert name in image.function_owner, name

    def test_every_bug_has_live_syscalls(self, image):
        for spec in all_bugs():
            assert spec.victim_syscall in image.syscalls, spec.bug_id
            assert spec.observer_syscall in image.syscalls, spec.bug_id
            for setup in spec.setup_syscalls:
                assert setup in image.syscalls, (spec.bug_id, setup)

    def test_bug_crash_functions_exist(self, image):
        """Every registry title names a function that actually exists."""
        import re

        for spec in all_bugs():
            m = re.search(r" in ([A-Za-z_][A-Za-z0-9_]*)$", spec.title)
            if m is None:
                continue  # e.g. the semantic-oracle title
            func = m.group(1)
            if spec.bug_id == "t4_sbitmap":
                func = "sbitmap_queue_clear"
            assert image.program.has_function(func), (spec.bug_id, func)

    def test_syzlang_templates_match_kernel(self, image):
        assert validate_against_kernel(templates(), image) == []

    def test_duplicate_syscall_rejected(self):
        from repro.kernel.subsystem import Subsystem
        from repro.kernel.syscalls import SyscallDef
        from repro.kir import Builder
        from repro.errors import ConfigError

        def build(cfg, glob):
            b = Builder("sys_x")
            b.ret(0)
            return [b.function()]

        dup = Subsystem(
            name="dup", build=build,
            syscalls=(SyscallDef("null", "sys_x"),),  # clashes with core's
        )
        from repro.kernel.kernel import default_subsystems

        with pytest.raises(ConfigError, match="duplicate syscall"):
            KernelImage(KernelConfig(), default_subsystems() + [dup])


    def test_cold_setup_loads_only_reaching_definitions(self):
        """Building an image and booting a kernel, as a campaign's set-up
        does, loads only the part of KIRA the image's validator uses."""
        script = textwrap.dedent(
            """
            import sys
            from repro.campaign_api import CampaignSpec
            from repro.fuzzer.parallel import campaign_pool

            _, pool = campaign_pool(CampaignSpec())
            pool.acquire()
            print(sorted(m for m in sys.modules if m.startswith("repro.analysis")))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        ).stdout
        loaded = out.strip().splitlines()[-1]
        assert loaded == str(["repro.analysis", "repro.analysis.reaching"])


class TestImageMemo:
    def test_one_image_per_config(self):
        config = KernelConfig()
        assert kernel_image(config) is kernel_image(KernelConfig())
        patched = kernel_image(KernelConfig(patched=frozenset({"t3_rds_xmit"})))
        assert patched is not kernel_image(config)
        assert patched.config.patched == {"t3_rds_xmit"}

    def test_evicts_the_least_recently_used_image(self):
        configs = [KernelConfig(ncpus=n) for n in range(3, 4 + IMAGE_CACHE_SIZE)]
        images = [kernel_image(config) for config in configs[:-1]]
        assert kernel_image(configs[0]) is images[0]  # a hit refreshes it
        kernel_image(configs[-1])  # evicts configs[1], now the oldest
        assert kernel_image(configs[0]) is images[0]
        rebuilt = kernel_image(configs[1])
        assert rebuilt is not images[1]
        assert rebuilt.config == configs[1]

    def test_concurrent_callers_share_one_image(self):
        """More threads than cores ask for one uncached config at once."""
        config = KernelConfig(ncpus=3, lockdep=False)
        nthreads = (os.cpu_count() or 1) + 2
        start = threading.Barrier(nthreads)
        images, errors = [], []

        def ask():
            try:
                start.wait(timeout=30)
                images.append(kernel_image(config))
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=ask) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(images) == nthreads
        assert all(image is images[0] for image in images)
        assert kernel_image(config) is images[0]


class TestKernelInstance:
    def test_boot_initializes_subsystem_state(self, kernel):
        # watch_queue's ops-table confirm pointer is wired at boot.
        ops = kernel.glob("wq_pipe_ops")
        assert kernel.peek(ops) == kernel.program.func_addr("wq_confirm")
        # vlan's slots hold recycled garbage.
        from repro.kernel.subsystems.vlan import GARBAGE_PTR, VLAN_GROUP

        assert kernel.peek(kernel.glob("vlan_group") + VLAN_GROUP.slots) == GARBAGE_PTR

    def test_fresh_instances_share_the_image(self, image):
        k1, k2 = Kernel(image), Kernel(image)
        assert k1.program is k2.program
        k1.poke(k1.glob("wq_pipe"), 42)
        assert k2.peek(k2.glob("wq_pipe")) == 0  # state is isolated

    def test_unknown_syscall_rejected(self, kernel):
        with pytest.raises(KirError, match="no syscall"):
            kernel.run_syscall("does_not_exist")

    def test_unknown_global_rejected(self, kernel):
        with pytest.raises(KirError, match="no global"):
            kernel.glob("nope")

    def test_arg_fitting_pads_and_truncates(self, kernel):
        assert kernel.run_syscall("null", (1, 2, 3)) == 1  # extra args dropped
        assert kernel.run_syscall("watch_queue_post") == 0  # missing arg -> 0

    def test_fd_table_flows(self, kernel):
        fd = kernel.run_syscall("socket")
        assert fd >= 3
        fd2 = kernel.run_syscall("socket")
        assert fd2 == fd + 1
        assert kernel.fdtable[fd] != kernel.fdtable[fd2]


ALL_SYSCALL_SMOKE = [
    ("null", ()), ("getpid", ()), ("ctxsw", ()), ("pipe_lat", (5,)),
    ("unix_lat", (5,)), ("fork", ()), ("mmap", (4,)),
    ("creat", (1,)), ("stat", (1,)), ("unlink", (1,)),
    ("watch_queue_create", ()), ("watch_queue_set_size", (8,)),
    ("watch_queue_post", (3,)), ("pipe_read", ()),
    ("socket", ()), ("rds_socket", ()), ("rds_sendmsg", (0,)),
    ("xsk_socket", ()), ("vmci_create", ()), ("vmci_wait", ()),
    ("gsm_dlci_open", (1500,)), ("gsm_dlci_config", (1,)),
    ("vlan_add", ()), ("vlan_get_device", ()),
    ("open", (1,)), ("fget_light_read", ()), ("dup_close", ()),
    ("nbd_setup", ()), ("nbd_alloc_config", ()), ("nbd_ioctl", (0,)),
    ("nbd_config_put", ()), ("unix_socket", ()), ("unix_bind", (16,)),
    ("unix_getname", ()), ("blk_complete", ()), ("blk_submit", ()),
    ("smc_socket", ()), ("vmci_wait", ()),
]


class TestSyscallSmoke:
    """Every syscall runs crash-free single-threaded (the §4.2 property:
    the seeded bugs are pure concurrency bugs)."""

    @pytest.mark.parametrize("name,args", ALL_SYSCALL_SMOKE, ids=lambda p: str(p))
    def test_syscall_runs_clean(self, kernel, name, args):
        kernel.run_syscall(name, args)

    def test_fd_consuming_syscalls_run_clean(self, kernel):
        sock = kernel.run_syscall("socket")
        for name in ("tls_init", "setsockopt", "tls_getsockopt", "tls_err_abort",
                     "tls_getsockopt_err", "sockmap_update", "sock_data_ready"):
            kernel.run_syscall(name, (sock,))
        kernel.run_syscall("tls_set_crypto", (sock, 7))
        xsk = kernel.run_syscall("xsk_socket")
        for name in ("xsk_bind", "xsk_poll", "xsk_sendmsg", "xsk_setup_ring",
                     "xsk_ring_deref", "xsk_activate", "xsk_state_xmit", "xsk_unbind"):
            kernel.run_syscall(name, (xsk,))
        smc = kernel.run_syscall("smc_socket")
        for name in ("smc_listen", "smc_connect", "smc_accept", "smc_release"):
            kernel.run_syscall(name, (smc,))
        fd = kernel.run_syscall("fs_open", (1,))
        if fd:
            kernel.run_syscall("fs_write", (fd, 8))
            kernel.run_syscall("fs_read", (fd,))
            kernel.run_syscall("fs_close", (fd,))

    def test_bad_fd_is_harmless(self, kernel):
        for name in ("tls_init", "xsk_bind", "xsk_poll", "fs_close", "fs_read"):
            kernel.run_syscall(name, (9999,))
