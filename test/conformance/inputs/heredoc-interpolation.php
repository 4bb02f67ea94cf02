<?php $s = <<<EOT
Hello $name and {$a['x']}
also $obj->prop plus $_GET[id] and $arr[3]
EOT;
